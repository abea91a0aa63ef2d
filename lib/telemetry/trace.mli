(** The one recorder: per-packet hop tracing and the control-plane
    flight recorder behind a single installed {!t} and a single
    {!enabled} guard.

    Forwarding components (host NIC, legacy switch, soft switch,
    controller) {!emit} {e hops}; control-plane subsystems (channel,
    retry, WAL, migration, failover, poller, fault injection, alerts)
    record leveled {e events} with {!event}.  Both draw their [seq] from
    one per-recorder sequence, so a same-seed rerun numbers them
    identically, however many recorders the process has seen.  Hops are
    all kept (exact attribution in {!Span} and {!Profile} needs every
    one); events are kept in one bounded ring per stream, so the
    recorder's event memory is bounded no matter how long the run is.

    The default state is {e off}: no recorder installed, and a call site
    guarded by {!enabled} pays one ref read and allocates exactly zero
    minor words (pinned by test).  An emitted hop keeps the immutable
    packet and renders it, and computes its {!key_of_packet}, only when
    read.

    {2 Correlation}

    Packets are immutable values, copied and re-tagged as they cross
    the fabric, so hops correlate on {!key_of_packet} — a hash of the
    frame with its VLAN stack stripped.  The HARMLESS tag
    push/pop/rewrite path preserves the key; L3-header rewrites start a
    new trace and byte-identical frames share one.  Event correlation
    ids are plain ints, [0] meaning "uncorrelated", derived from stable
    names by {!corr_of_string} (a migration machine uses its txn id, a
    channel its switch name, an alert rule its rule name) or, for
    packet-correlated events, taken from {!key_of_packet} directly — the
    join the Chrome trace export renders.

    {2 Clock}

    Hops always carry their sim-time stamp.  Event sites that know their
    engine pass [~ts_ns]; sites with no time source (the synchronous
    retry loop, WAL appends) fall back to the recorder's [clock], and
    are stamped [0] when it has none.

    {2 Cycle model}

    Every emit site reports a modelled per-packet processing cost via
    [~cycles] — either a measured value, a fixed estimate, or an
    {e explicit} [0] meaning "free by design in this model", never an
    accidental default.  Costs are CPU-equivalent cycles at the trace
    clock (the PMD's configured frequency, 2.6 GHz by default; for the
    legacy ASIC they are CPU-equivalent figures, not real ASIC cycles).
    The current model:

    - Host [tx]/[rx]: [0] — endpoint stack cost is out of scope.
    - Legacy [ingress]: [90] (VLAN classify + MAC learn + lookup);
      [tag_push]/[tag_pop]: [12] each (one 802.1Q rewrite);
      [egress] (delivery that never carried a tag): [0].
    - Soft switch [rx]: the PMD's [per_packet_io_cycles] (50 by
      default), consistent with the capacity model;
      [pipeline]: the dataplane's {e measured} lookup cycles;
      [tx]: [20] (egress queueing); [punt]: [150] (Packet_in
      encapsulation); [standalone]: [120] (local L2 slow path);
      [drop] (rx ring full): [0] — the cost was never spent.
    - Controller [packet_in]/[packet_out]: [0] — control-plane CPU is
      not part of the datapath model (its latency shows up in
      sim-time, not cycles).

    Profile/flame-graph tooling treats [cycles = 0] as "no self cost",
    so stages stay visible in traces without skewing attribution. *)

type layer =
  | Host
  | Legacy       (** the legacy Ethernet switch dataplane *)
  | Switch       (** a software (or hardware-model) OpenFlow switch *)
  | Controller
  | Manager
  | Other of string

val layer_name : layer -> string

type hop = {
  seq : int;            (** recorder emission order, shared with events, 1-based *)
  ts_ns : int;          (** sim-time timestamp *)
  component : string;   (** emitting node, e.g. ["legacy0"], ["sw-ss1"] *)
  layer : layer;
  stage : string;       (** e.g. ["ingress"], ["tag_push"], ["pipeline"] *)
  port : int option;    (** port involved, when meaningful *)
  trace_key : int Lazy.t;  (** {!key_of_packet}, computed on first read *)
  packet : string Lazy.t;  (** one-line packet rendering, on first read *)
  bytes : int;          (** wire size *)
  cycles : int;         (** processing cost, 0 when not modelled *)
  detail : string;
}

type level = Debug | Info | Warn | Error

val level_name : level -> string
(** ["debug"], ["info"], ["warn"], ["error"]. *)

type event = {
  seq : int;  (** recorder emission order, shared with hops, 1-based *)
  ts_ns : int;
  level : level;
  stream : string;  (** emitting subsystem, a token: ["channel"], ["txn"], … *)
  name : string;  (** short verb token: ["reconnect"], ["rollback"], … *)
  corr : int;  (** correlation id; [0] = uncorrelated *)
  detail : string;  (** free text, single line *)
}

(** {2 The recorder} *)

type t

val create : ?stream_capacity:int -> ?clock:(unit -> int) -> unit -> t
(** A fresh recorder.  Each event stream keeps at most
    [stream_capacity] events (default 512); older ones are evicted and
    counted in {!dropped}.  [clock] stamps events emitted without
    [~ts_ns].  @raise Invalid_argument if [stream_capacity < 2]. *)

val install : t -> unit
(** Make [t] the process-wide recorder. *)

val uninstall : t -> unit
(** Remove the recorder if [t] is the one installed. *)

val enabled : unit -> bool
(** True iff a recorder is installed.  Instrumentation sites guard
    their emit (and any detail-string formatting) behind this. *)

val with_recorder :
  ?stream_capacity:int -> ?clock:(unit -> int) -> (t -> 'a) -> 'a
(** Run [f] with a fresh recorder installed, restoring the previous
    one afterwards (also on exceptions). *)

val clear : t -> unit
(** Forget every hop and event and restart the sequence at 1. *)

val of_hops : hop list -> t
(** A recorder holding exactly these hops (given in emission order)
    and no events, for rendering hand-built traces. *)

(** {2 Emitting} *)

val key_of_packet : Netpkt.Packet.t -> int
(** The VLAN-stack-invariant correlation key. *)

val corr_of_string : string -> int
(** A stable, non-zero correlation id for a name.  Same hash family as
    {!key_of_packet}, so the two id spaces render identically. *)

val emit :
  ts_ns:int -> component:string -> layer:layer -> stage:string ->
  ?port:int -> ?cycles:int -> ?detail:string -> Netpkt.Packet.t -> unit
(** Record one hop; a no-op when no recorder is installed.  Renders
    nothing: the packet string and key are computed when first read. *)

val event :
  ?level:level ->
  ?ts_ns:int ->
  ?corr:int ->
  ?detail:string ->
  stream:string ->
  string ->
  unit
(** [event ~stream name] records one event ([level] defaults to
    [Info], [corr] to [0]); a no-op when no recorder is installed.
    Newlines in [detail] become spaces (events are single lines).
    @raise Invalid_argument if [stream] or [name] is empty or contains
    whitespace — they must be tokens. *)

(** {2 Reading} *)

val mark : t -> int
(** The [seq] the next hop or event will get: pass it as [~since] to
    read only what was recorded from now on. *)

val hops : ?since:int -> t -> hop list
(** Hops with [seq >= since] (default all), in emission order. *)

type trace = { key : int; hops : hop list }
(** One packet's life, hops ordered by [(ts_ns, seq)]. *)

val traces : ?since:int -> t -> trace list
(** {!hops} grouped per packet, traces ordered by first appearance. *)

val events : ?stream:string -> ?min_level:level -> t -> event list
(** The retained events, merged across streams in [(ts_ns, seq)]
    order, optionally restricted to one stream and/or to levels at or
    above [min_level]. *)

val streams : t -> string list
(** Streams that have recorded at least one event, sorted. *)

val recorded : t -> int
(** Events ever emitted into this recorder, including evicted ones. *)

val dropped : t -> int
(** Events evicted by ring wrap-around. *)

(** {2 Rendering} *)

val event_to_string : event -> string
(** ["event <seq> <ts_ns> <level> <stream> <corr-hex8> <name> [detail]"]
    — the snapshot line format, parsed back by {!event_of_string}. *)

val event_of_string : string -> (event, string) result

val pp_time : Format.formatter -> int -> unit
(** Nanoseconds, human-readable (["12.500us"]). *)

val pp_hop : Format.formatter -> hop -> unit

val pp_event : Format.formatter -> event -> unit
(** Human-readable: time, level, stream.name, corr, detail. *)
