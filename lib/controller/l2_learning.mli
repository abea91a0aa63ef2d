(** The classic reactive L2-learning controller application: learn source
    MAC → port from packet-ins, install an exact destination-MAC flow once
    the destination is known, flood otherwise.  Serves as the base
    forwarding layer under the use-case apps.

    Each datapath gets its own {!Ethswitch.Mac_table} — the legacy
    switch's learner, keyed on VLAN 0 because the app ignores VLANs:
    8192 entries, least recently learned evicted first, and an entry
    ages out [idle_timeout_s] after its host was last seen, in step with
    the rules the app installs.  A packet-in for a datapath the app has
    not seen come up simply starts that datapath's table.

    A known destination's rule is re-sent on every packet-in for it, on
    purpose: OFPFC_ADD of an identical rule resets its counters and idle
    timer, and knowing the rule is still installed would need
    [Flow_removed] tracking. *)

val create : ?idle_timeout_s:int -> unit -> Controller.app
(** Installs its rules at priority 1000, below {!Policy.Compile.base}, so
    a compiled table in the same table (parental control's) decides
    first.  Default 300 s idle timeout on installed flows and on
    learned addresses.  A port-down event flushes the addresses learned
    behind the port ({!Ethswitch.Mac_table.flush_port}) and withdraws
    the flows that output to it. *)
