open Openflow

type state = {
  mutable packets : int;
  mutable scanned_total : int;
  (* the pass in progress *)
  scanned : int ref;
  mutable tables_visited : int;
}

let create pipeline =
  let st = { packets = 0; scanned_total = 0; scanned = ref 0; tables_visited = 0 } in
  let lookup table_id ~in_port fields =
    st.tables_visited <- st.tables_visited + 1;
    Flow_table.lookup_scan (Pipeline.table pipeline table_id) ~scanned:st.scanned
      ~in_port fields
  in
  let process ~now_ns ~in_port pkt =
    st.scanned := 0;
    st.tables_visited <- 0;
    let result =
      Pipeline.execute_with pipeline ~lookup ~now_ns ~in_port pkt
        (Netpkt.Packet.Fields.of_packet pkt)
    in
    st.packets <- st.packets + 1;
    st.scanned_total <- st.scanned_total + !(st.scanned);
    Pipeline.set_cycles result
      (Dataplane.Cost.parse
      + (st.tables_visited * Dataplane.Cost.table_base)
      + (!(st.scanned) * Dataplane.Cost.linear_per_entry)
      + Dataplane.cycles_of_result result);
    result
  in
  let stats () =
    [ ("packets", st.packets); ("entries_scanned", st.scanned_total) ]
  in
  { Dataplane.name = "linear"; process; stats; tier = (fun () -> "linear") }
