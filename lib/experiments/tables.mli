(** Plain-text table rendering for the experiment harness — every
    experiment prints its paper-shaped rows through this. *)

val render : header:string list -> string list list -> string
(** Aligned columns, a separator under the header. *)

val print : title:string -> header:string list -> string list list -> unit
(** [render] to stdout under a titled banner; also mirrors the rows to the
    CSV directory when {!set_csv_dir} is active. *)

val set_csv_dir : string option -> unit
(** When set, every {!print} also writes [<slug-of-title>.csv] into the
    directory (created if missing) — the plottable form of each table. *)

val f1 : float -> string
(** One decimal. *)

val pct : float -> string
(** [0.1234] → ["12.3%"]. *)

val mpps : float -> string
(** Packets/s → ["14.88 Mpps"]. *)

val gbps : float -> string
(** Bits/s → ["9.41 Gbps"]. *)

val us : int -> string
(** Nanoseconds → microseconds with 2 decimals. *)
