(** The SS_1 transparency invariant, checked two ways.

    The paper's translator switch promises the controller a plain
    OpenFlow switch while the physical trunk carries the VLAN trick.
    That promise decomposes into checkable facts:

    - {e hairpin}: a frame tagged [vid(i)] arriving on the trunk leaves
      bare on patch port [i]; a bare frame arriving on patch port [i]
      leaves on the trunk with exactly one fresh [vid(i)] tag; composing
      the two is the identity;
    - frames with unknown VLANs, or no VLAN, miss and are dropped;
    - end to end, trunk links carry only single-tagged managed-VLAN
      frames, patch links and hosts see only bare frames, and no
      packet-in towards the controller ever carries a VLAN header —
      under arbitrary fault schedules. *)

type violation = { context : string; detail : string }

val pp_violation : Format.formatter -> violation -> unit

val check_hairpin : seed:int -> violation list
(** Pure check, no simulation: draw a random {!Harmless.Port_map}, build
    SS_1's {!Harmless.Translator.rules} program on a fresh pipeline per
    implementation (the oracle plus every backend in
    {!Softswitch.Backends.all}), and drive directed frames through the
    three hairpin facts above plus the unknown-VLAN and untagged-trunk
    drop cases.  Empty list = invariant holds. *)

type report = {
  seed : int;
  trunk_frames : int;   (** frames observed on SS_1 NICs 0/1 *)
  patch_frames : int;   (** frames observed on SS_1 patch ports *)
  host_frames : int;    (** frames delivered to / sent by hosts *)
  packet_ins : int;     (** packet-ins inspected, both switches *)
  faults_injected : int;
  violations : violation list;  (** at most 32 kept *)
  chaos : Harmless.Chaos.report;
}

val run :
  ?num_hosts:int ->
  ?fault_count:int ->
  ?duration:Simnet.Sim_time.span ->
  seed:int ->
  unit ->
  (report, string) result
(** End-to-end check: build a {!Harmless.Chaos} rig (redundant trunks,
    watchdog, L2 controller), tap SS_1's node and every host with a
    {!Simnet.Capture}, register packet-in observers on both switches,
    schedule a {!Simnet.Fault.random_events} storm over every registered
    fault target, run the scripted chaos loop, and audit every captured
    frame against the transparency invariant.  Defaults: 3 hosts,
    5 faults, 30 ms.  [Error] only for rig construction / script
    failures — invariant breaches land in [violations]. *)
