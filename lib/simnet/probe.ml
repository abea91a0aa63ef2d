let magic = "@T"

(* One [Bytes] of the final length, zero padded: the magic, then the
   send time as 8 big-endian bytes. *)
let encode ~sent_at ~pad_to =
  let b = Bytes.make (Int.max 10 pad_to) '\x00' in
  Bytes.unsafe_set b 0 magic.[0];
  Bytes.unsafe_set b 1 magic.[1];
  let ns = Sim_time.to_ns sent_at in
  for i = 0 to 7 do
    Bytes.unsafe_set b (2 + i) (Char.unsafe_chr ((ns lsr ((7 - i) * 8)) land 0xff))
  done;
  Bytes.unsafe_to_string b

let decode s =
  if String.length s >= 10 && s.[0] = magic.[0] && s.[1] = magic.[1] then begin
    let ns = ref 0 in
    for i = 0 to 7 do ns := (!ns lsl 8) lor Char.code s.[2 + i] done;
    if !ns >= 0 then !ns else -1
  end
  else -1
