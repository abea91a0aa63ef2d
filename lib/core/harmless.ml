(** HARMLESS: a Hybrid ARchitecture to Migrate Legacy Ethernet Switches
    to SDN — the paper's contribution, as a library.

    Reading order:
    - {!Port_map}: the access-port ↔ VLAN bijection underlying the trick;
    - {!Translator}: the SS_1 flow program (tag → patch port and back);
    - {!Server}: the one builder of the software side — SS_1
      translators patched into a shared SS_2;
    - {!Manager}: the automation that configures a real (simulated)
      device through SNMP/NAPALM and stands the software side up;
    - {!Deployment}: turn-key single-switch topologies, plus legacy-only
      and plain-OpenFlow baselines;
    - {!Scaleout}: several legacy switches behind one server;
    - {!Failover}: a standby trunk with watchdog-driven recovery;
    - {!Chaos}: scripted fault injection against a full deployment,
      with a recovery report;
    - {!Migration}: the transactional live-cutover engine — staged
      make-before-break migration with WAL crash recovery, SLO-gated
      canaries, automatic rollback, a circuit breaker and a fleet
      orchestrator;
    - {!Migration_rig}: the harness that validates it — crash sweeps
      over every WAL boundary and a mid-canary SLO-breach scenario;
    - {!Dashboard}: the monitoring-plane demo behind [harmlessctl top]
      and [harmlessctl alerts] — a stats poller plus alert rules over a
      live deployment, with deterministic text renderers;
    - {!Transparency}: the checker for the paper's central property —
      the controller cannot tell HARMLESS from a real OpenFlow switch;
    - {!Trace_view}: renders telemetry hop traces in the paper's
      vocabulary (tag push, SS_1 translate, hairpin, tag pop);
    - {!Perf_rig}: the deterministic profiling rig behind
      [harmlessctl perf] — per-stage cost attribution for the HARMLESS
      walk against a direct-OpenFlow control group;
    - {!Flow_rig}: the sketch-accuracy rig behind
      [harmlessctl flows --report] — a seeded Zipf elephant/mice
      workload replayed through a sampled fabric, estimates checked
      against exact references. *)

module Port_map = Port_map
module Translator = Translator
module Server = Server
module Manager = Manager
module Deployment = Deployment
module Scaleout = Scaleout
module Failover = Failover
module Chaos = Chaos
module Migration = Migration
module Migration_rig = Migration_rig
module Dashboard = Dashboard
module Transparency = Transparency
module Trace_view = Trace_view
module Perf_rig = Perf_rig
module Flow_rig = Flow_rig
