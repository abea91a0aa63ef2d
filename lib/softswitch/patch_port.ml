open Simnet

type t = {
  node_a : Node.t;
  port_a : int;
  node_b : Node.t;
  port_b : int;
  mutable up : bool;
}

let connect (node_a, port_a) (node_b, port_b) =
  let engine = Node.engine node_a in
  if not (Node.engine node_b == engine) then
    invalid_arg "Patch_port.connect: nodes on different engines";
  let t = { node_a; port_a; node_b; port_b; up = true } in
  (* Same-instant scheduling (rather than a direct call) keeps the event
     order deterministic and the stack bounded under switch loops. *)
  let wire src src_port dst dst_port =
    let deliver port pkt = Node.deliver dst ~port pkt in
    Node.attach src ~port:src_port (fun pkt ->
        if t.up then Engine.deliver_at engine (Engine.now engine) deliver dst_port pkt)
  in
  wire node_a port_a node_b port_b;
  wire node_b port_b node_a port_a;
  t
