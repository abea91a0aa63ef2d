(* E4 — "no substantial price tag": CAPEX per OpenFlow-enabled access
   port as the deployment grows, for each migration strategy, plus the
   headline savings figure. *)

let port_counts = [ 8; 16; 24; 48; 96; 144; 192; 384 ]

let rows () = Costmodel.Cost.sweep ~port_counts

let run () =
  let rows = rows () in
  Tables.print ~title:"E4: CAPEX per OpenFlow port ($/port)"
    ~header:
      [ "ports"; "COTS SDN"; "HARMLESS green"; "HARMLESS brown"; "software-only" ]
    (List.map
       (fun (r : Costmodel.Cost.row) ->
         [
           string_of_int r.Costmodel.Cost.ports;
           Tables.f1 r.Costmodel.Cost.cots;
           Tables.f1 r.Costmodel.Cost.greenfield;
           Tables.f1 r.Costmodel.Cost.brownfield;
           Tables.f1 r.Costmodel.Cost.software;
         ])
       rows);
  let savings = Costmodel.Cost.savings_vs_cots ~ports:48 in
  Printf.printf "\nSavings vs COTS SDN at 48 ports (brownfield): %s\n"
    (Tables.pct savings);
  (* The headline figure also lands on the flight recorder when one is
     installed, so an experiment sweep shows up in a post-mortem's
     event window like any other control-plane activity. *)
  if Telemetry.Trace.enabled () then
    Telemetry.Trace.event ~stream:"experiment"
      ~corr:(Telemetry.Trace.corr_of_string "e4-cost")
      ~detail:(Printf.sprintf "e4-cost savings_vs_cots=%.3f ports=48" savings)
      "headline";
  (match Costmodel.Cost.crossover_vs_cots ~max_ports:1024 with
  | Some p -> Printf.printf "Greenfield crossover vs COTS: %d ports\n" p
  | None ->
      print_endline
        "Greenfield crossover vs COTS: none up to 1024 ports (HARMLESS cheaper throughout)");
  (* An itemized example bill, the way the paper would pitch it. *)
  Printf.printf "\n%s"
    (Format.asprintf "%a" Costmodel.Scenario.pp_bill
       (Costmodel.Scenario.harmless_brownfield ~ports:48));
  rows
