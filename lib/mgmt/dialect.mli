(** NOS configuration dialects: render a {!Device_config} to the CLI text
    of a particular network operating system and parse it back.  Two
    dialects are modelled — an IOS-like one and an EOS-like one — which is
    what exercises the NAPALM abstraction the HARMLESS Manager relies on
    (the original uses NAPALM to speak to "Cisco IOS, Arista EOS, ...").  *)

module type S = sig
  val name : string
  (** e.g. ["ios"] *)

  val interface_name : int -> string
  (** 0-based port index to CLI name, e.g. 0 → ["GigabitEthernet0/1"]. *)

  val parse_interface_name : string -> int option

  val render : Device_config.t -> string

  val parse : string -> (Device_config.t, string) result
  (** Inverse of {!render}; also accepts hand-written config in the same
      dialect.  Unknown lines inside interface stanzas are ignored (as
      real parsers must); structural errors are reported. *)
end

module Ios : S
module Eos : S

module Junos : S
(** A JunOS-like dialect with a completely different grammar: flat
    [set interfaces ge-0/0/N ...] statements instead of indented
    stanzas — included to demonstrate that the NAPALM abstraction
    really is syntax-independent. *)
