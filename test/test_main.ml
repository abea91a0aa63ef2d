(* Aggregates every suite; `dune runtest` runs the lot. *)

(* Runs last: a suite that installs a process-wide recorder must remove
   it again, or every later test silently runs traced. *)
let leftovers =
  [
    ( "leftovers",
      [
        Alcotest.test_case "no trace or alloc recorder left installed" `Quick
          (fun () ->
            Alcotest.(check bool) "trace recorder" false
              (Telemetry.Trace.enabled ()));
      ] );
  ]

let () =
  Alcotest.run "harmless-repro"
    (Test_wire.suite @ Test_netpkt.suite @ Test_simnet.suite @ Test_ethswitch.suite
   @ Test_openflow.suite @ Test_softswitch.suite @ Test_mgmt.suite
   @ Test_controller.suite @ Test_costmodel.suite @ Test_harmless.suite
   @ Test_integration.suite @ Test_meters.suite @ Test_scaleout.suite
   @ Test_codec.suite @ Test_monitor.suite @ Test_failover.suite
   @ Test_dns.suite @ Test_port_status.suite @ Test_impairments.suite @ Test_tcp_session.suite @ Test_inventory.suite @ Test_properties.suite
   @ Test_telemetry.suite @ Test_fault.suite @ Test_chaos.suite
   @ Test_timeseries.suite @ Test_poller.suite @ Test_check.suite
   @ Test_perf.suite @ Test_memtel.suite @ Test_migration.suite
   @ Test_eventlog.suite @ Test_policy.suite @ Test_sketch.suite
   @ Test_flowrec.suite @ leftovers)
