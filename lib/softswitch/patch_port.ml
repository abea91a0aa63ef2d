open Simnet

let connect (node_a, port_a) (node_b, port_b) =
  let engine = Node.engine node_a in
  if not (Node.engine node_b == engine) then
    invalid_arg "Patch_port.connect: nodes on different engines";
  (* Same-instant scheduling (rather than a direct call) keeps the event
     order deterministic and the stack bounded under switch loops. *)
  let wire src src_port dst dst_port =
    let sink = Engine.sink engine (fun port pkt -> Node.deliver dst ~port pkt) in
    Node.attach src ~port:src_port (fun pkt ->
        Engine.deliver_at engine (Engine.now engine) sink dst_port pkt)
  in
  wire node_a port_a node_b port_b;
  wire node_b port_b node_a port_a
