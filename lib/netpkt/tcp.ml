type flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
  urg : bool;
}

let no_flags =
  { syn = false; ack = false; fin = false; rst = false; psh = false; urg = false }

let syn = { no_flags with syn = true }
let syn_ack = { no_flags with syn = true; ack = true }
let ack_only = { no_flags with ack = true }
let fin_ack = { no_flags with fin = true; ack = true }

type t = {
  src_port : int;
  dst_port : int;
  seq : int32;
  ack_no : int32;
  flags : flags;
  window : int;
  payload : string;
}

let make ~src_port ~dst_port ?(seq = 0l) ?(ack_no = 0l) ?(flags = no_flags)
    ?(window = 65535) payload =
  let check_u16 what v =
    if v < 0 || v > 0xffff then invalid_arg ("Tcp.make: bad " ^ what)
  in
  check_u16 "src_port" src_port;
  check_u16 "dst_port" dst_port;
  check_u16 "window" window;
  { src_port; dst_port; seq; ack_no; flags; window; payload }

let header_size = 20
let size t = header_size + String.length t.payload

let flags_to_int f =
  (if f.fin then 0x01 else 0)
  lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0)
  lor (if f.psh then 0x08 else 0)
  lor (if f.ack then 0x10 else 0)
  lor if f.urg then 0x20 else 0

let flags_of_int n =
  {
    fin = n land 0x01 <> 0;
    syn = n land 0x02 <> 0;
    rst = n land 0x04 <> 0;
    psh = n land 0x08 <> 0;
    ack = n land 0x10 <> 0;
    urg = n land 0x20 <> 0;
  }

let encode_with_checksum t csum =
  let w = Wire.W.create () in
  Wire.W.u16 w t.src_port;
  Wire.W.u16 w t.dst_port;
  Wire.W.u32 w t.seq;
  Wire.W.u32 w t.ack_no;
  Wire.W.u8 w (5 lsl 4) (* data offset 5 words, no options *);
  Wire.W.u8 w (flags_to_int t.flags);
  Wire.W.u16 w t.window;
  Wire.W.u16 w csum;
  Wire.W.u16 w 0 (* urgent pointer *);
  Wire.W.bytes w t.payload;
  Wire.W.contents w

let encode ~src ~dst t =
  let pseudo = Checksum.pseudo_header ~src ~dst ~proto:6 ~len:(size t) in
  let zeroed = encode_with_checksum t 0 in
  let sum =
    Checksum.ones_complement_sum ~init:(Checksum.ones_complement_sum pseudo) zeroed
  in
  encode_with_checksum t (Checksum.finish sum)

let decode ~src ~dst s =
  let ctx = "tcp" in
  let r = Wire.R.create s in
  let src_port = Wire.R.u16 ~ctx r in
  let dst_port = Wire.R.u16 ~ctx r in
  let seq = Wire.R.u32 ~ctx r in
  let ack_no = Wire.R.u32 ~ctx r in
  let off_byte = Wire.R.u8 ~ctx r in
  let data_off = (off_byte lsr 4) * 4 in
  if data_off < header_size then raise (Wire.Malformed "tcp: bad data offset");
  let flags = flags_of_int (Wire.R.u8 ~ctx r) in
  let window = Wire.R.u16 ~ctx r in
  let _csum = Wire.R.u16 ~ctx r in
  let _urg = Wire.R.u16 ~ctx r in
  if data_off > String.length s then raise (Wire.Malformed "tcp: options overrun");
  Wire.R.skip ~ctx r (data_off - header_size);
  let payload = Wire.R.rest r in
  let pseudo =
    Checksum.pseudo_header ~src ~dst ~proto:6 ~len:(String.length s)
  in
  let sum = Checksum.ones_complement_sum ~init:(Checksum.ones_complement_sum pseudo) s in
  if sum land 0xffff <> 0xffff then raise (Wire.Malformed "tcp: bad checksum");
  { src_port; dst_port; seq; ack_no; flags; window; payload }

let equal a b =
  a.src_port = b.src_port && a.dst_port = b.dst_port
  && Int32.equal a.seq b.seq
  && Int32.equal a.ack_no b.ack_no
  && a.flags = b.flags && a.window = b.window
  && String.equal a.payload b.payload

let pp_flags fmt f =
  let names =
    List.filter_map
      (fun (b, n) -> if b then Some n else None)
      [ (f.syn, "S"); (f.ack, "."); (f.fin, "F"); (f.rst, "R"); (f.psh, "P"); (f.urg, "U") ]
  in
  Format.pp_print_string fmt (if names = [] then "-" else String.concat "" names)

let pp fmt t =
  Format.fprintf fmt "tcp %d > %d [%a] seq %lu len %d" t.src_port t.dst_port
    pp_flags t.flags t.seq (String.length t.payload)
