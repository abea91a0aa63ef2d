open Openflow

let create pipeline =
  let scanned_total = ref 0 in
  let packets = ref 0 in
  let process ~now_ns ~in_port pkt =
    let scanned = ref 0 in
    let tables_visited = ref 0 in
    let lookup table_id ~in_port fields =
      incr tables_visited;
      let entry, n = Flow_table.lookup_scan (Pipeline.table pipeline table_id) ~in_port fields in
      scanned := !scanned + n;
      entry
    in
    let result = Pipeline.execute_with pipeline ~lookup ~now_ns ~in_port pkt in
    incr packets;
    scanned_total := !scanned_total + !scanned;
    let cycles =
      Dataplane.Cost.parse
      + (!tables_visited * Dataplane.Cost.table_base)
      + (!scanned * Dataplane.Cost.linear_per_entry)
      + Dataplane.cycles_of_result result
    in
    (result, cycles)
  in
  let stats () =
    [ ("packets", !packets); ("entries_scanned", !scanned_total) ]
  in
  { Dataplane.name = "linear"; process; stats; tier = (fun () -> "linear") }
