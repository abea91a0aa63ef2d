(** An ESwitch-like dataplane (Molnár et al., SIGCOMM 2016 — the software
    switch the HARMLESS demo ran): the flow table is {e compiled} into a
    small set of specialized matchers ("templates").

    Entries whose match tests a set of fields exactly are grouped per
    field-set.  Each entry's key is twelve plain ints: MACs as 48-bit
    ints, IPv4 addresses as unsigned 32-bit ints, [-1] for a field the
    template does not test.  A template hashes its keys into a
    power-of-two bucket array.  The few entries with prefixes, masks or
    presence-tests fall into a residual list.  A lookup probes each
    template once (one int mix over the packet's fields, straight from
    {!Netpkt.Packet.Fields.t}, then a field-wise int compare; a tested
    field the packet lacks reads [-1], which no tested key holds) plus
    the residual, and keeps the highest-priority candidate.  A lookup
    allocates nothing: a hit returns the [Some entry] built at sync
    time, and residual matching ({!Openflow.Of_match.matches}) builds no
    boxes.  Since real OpenFlow programs use
    a handful of rule shapes, the per-packet cost is near-constant in the
    number of rules — the property experiment E5 reproduces.

    The compiled tables are kept up to date incrementally.  On the first
    packet after the pipeline version changes, each table whose own
    version moved is synced: one merge walk diffs the entry list as last
    synced against the current one, in table order (priority descending,
    then {!Openflow.Flow_entry.seq} ascending), by physical equality, and
    stops where the two lists share their tail.  A departed entry's
    candidate leaves its bucket and an arrived one is inserted in table
    order; a template is added for a new signature, removed when it
    empties, and its bucket array doubles when its size outgrows it.  The
    residual array is rebuilt only when a residual entry changed.  A
    flow-mod thus costs words in the entries it changes, not a rebuild of
    every table; the first compile is the same sync from an empty table.
    Stats expose ["recompiles"] (one per pipeline version change seen),
    ["templates"] and ["packets"]. *)

val create : Openflow.Pipeline.t -> Dataplane.t
