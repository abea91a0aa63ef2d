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
  Node.attach node_a ~port:port_a (fun pkt ->
      if t.up then
        Engine.schedule_after engine 0 (fun () -> Node.deliver node_b ~port:port_b pkt));
  Node.attach node_b ~port:port_b (fun pkt ->
      if t.up then
        Engine.schedule_after engine 0 (fun () -> Node.deliver node_a ~port:port_a pkt));
  t
