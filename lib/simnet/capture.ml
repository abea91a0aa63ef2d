type entry = {
  time : Sim_time.t;
  node : string;
  dir : Node.direction;
  port : int;
  packet : Netpkt.Packet.t;
}

type t = { mutable entries : entry list (* newest first *) }

let create () = { entries = [] }

let attach t node =
  let name = Node.name node in
  let engine = Node.engine node in
  Node.add_tap node (fun dir port packet ->
      t.entries <-
        { time = Engine.now engine; node = name; dir; port; packet } :: t.entries)

let entries t = List.rev t.entries
let filter t pred = List.filter pred (entries t)
let count t pred = List.length (filter t pred)

let pp_entry fmt e =
  Format.fprintf fmt "%a %s[%d] %s %a" Sim_time.pp e.time e.node e.port
    (match e.dir with Node.Rx -> "rx" | Node.Tx -> "tx")
    Netpkt.Packet.pp e.packet

let dump fmt t =
  List.iter (fun e -> Format.fprintf fmt "%a@." pp_entry e) (entries t)

(* Little-endian writers for the pcap container (the de-facto layout). *)
let le32 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff))

let le16 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff))

let to_pcap ?(dir = Node.Rx) t =
  let b = Buffer.create 4096 in
  le32 b 0xa1b2c3d4 (* magic, microsecond resolution *);
  le16 b 2;
  le16 b 4 (* version 2.4 *);
  le32 b 0 (* thiszone *);
  le32 b 0 (* sigfigs *);
  le32 b 65535 (* snaplen *);
  le32 b 1 (* LINKTYPE_ETHERNET *);
  List.iter
    (fun e ->
      if e.dir = dir then begin
        let raw = Netpkt.Packet.encode e.packet in
        let ns = Sim_time.to_ns e.time in
        le32 b (ns / 1_000_000_000);
        le32 b (ns mod 1_000_000_000 / 1_000);
        le32 b (String.length raw);
        le32 b (String.length raw);
        Buffer.add_string b raw
      end)
    (entries t);
  Buffer.contents b

let save_pcap ?dir t ~path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_pcap ?dir t))
