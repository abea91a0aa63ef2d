(** Sweeps and summary statistics over the migration scenarios. *)

type row = {
  ports : int;
  cots : float;           (** $/port, COTS SDN *)
  greenfield : float;     (** $/port, HARMLESS buying everything *)
  brownfield : float;     (** $/port, HARMLESS reusing owned switches *)
  software : float;       (** $/port, servers as switches *)
}

val sweep : port_counts:int list -> row list

val savings_vs_cots : ports:int -> float
(** Fraction saved by HARMLESS (brownfield) relative to COTS SDN at a
    port count, in [0, 1). *)

val crossover_vs_cots : max_ports:int -> int option
(** Smallest port count (if any, up to [max_ports]) where HARMLESS
    greenfield stops being cheaper per port than COTS SDN. *)

val pp_table : Format.formatter -> row list -> unit
