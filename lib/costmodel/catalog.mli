(** The device catalog behind the CAPEX comparison (experiment E4).

    Prices are documented, deliberately conservative 2017-era street
    prices in USD; the paper's "no substantial price tag" claim rests on
    the {e ratios} between device classes, which are robust to the exact
    figures.  Change them here and every scenario recomputes. *)

type device = {
  sku : string;
  description : string;
  access_ports : int;   (** usable GbE access ports *)
  uplink_ports : int;   (** 10G uplinks usable as HARMLESS trunks *)
  price_usd : float;
  openflow_capable : bool;
}

val legacy_48 : device
(** 48×1G managed L2 switch, 4×10G uplinks. *)

val cots_sdn_24 : device
(** 24-port OpenFlow-enabled ToR including licenses. *)

val cots_sdn_48 : device
(** 48-port OpenFlow-enabled ToR including licenses. *)

val server : device
(** Commodity 1U server with a dual-port 10G DPDK NIC — hosts the
    HARMLESS software switches; each 10G port terminates one trunk. *)

val nic_dual_10g : device
(** Additional dual-port 10G NIC for a server (up to two extra). *)

val all : device list
val find : string -> device option
val pp : Format.formatter -> device -> unit
