(* Wall-clock and allocation attribution of the measured phase to layers,
   timed from outside the program.

   The traced loop runs the engine one event at a time, reading the
   monotonic clock and Gc.minor_words around each event.  A tap on every
   node names the layer of the first node the event touches; a marker
   app registered first in the controller chain names controller events.
   An event that touches no node (channel delivery, flow-mod apply, a PMD
   completion that outputs nothing) goes to [agent].  After the measured
   phase the frames captured at the software switches' receive side are
   replayed through [Soft_switch.process_direct] and a few netpkt
   operations, on the live, warmed deployment. *)

open Simnet
module D = Harmless.Deployment
module Sw = Softswitch.Soft_switch
module Packet = Netpkt.Packet

let names = [| "host"; "ethswitch"; "ss1"; "ss2"; "controller"; "agent" |]
let host = 0
let ethswitch = 1
let ss1 = 2
let ss2 = 3
let controller = 4
let agent = 5
let clock_ns () = Int64.to_int (Monotonic_clock.now ())

(* Frames seen at one switch's receive side. *)
type capture = {
  switch : Sw.t;
  frames : Packet.t array;
  ports : int array;
  mutable n : int;
  mutable rx : int;  (** every frame received, captured or not *)
}

let capture_capacity = 10_000
let pipeline_frames = 1_000

type t = {
  mutable current : int;  (** layer of the running event; -1 = none yet *)
  mutable mixed : bool;
  ns : int array;
  words : float array;
  events : int array;
  mutable mixed_events : int;
  mutable wall_ns : int;  (** whole traced loops, harness included *)
  mutable pending : int list;  (** queue depth every 1024 events *)
  mutable captures : capture list;
  mutable pipeline_ns : float;  (** replayed ns per frame x frames received *)
  mutable pipeline_words : float;
  netpkt : float array;  (** per call: fields ns, words; vlan ns, words; wire ns, words *)
  mutable replays : int;
}

let create () =
  {
    current = -1;
    mixed = false;
    ns = Array.make (Array.length names) 0;
    words = Array.make (Array.length names) 0.;
    events = Array.make (Array.length names) 0;
    mixed_events = 0;
    wall_ns = 0;
    pending = [];
    captures = [];
    pipeline_ns = 0.;
    pipeline_words = 0.;
    netpkt = Array.make 6 0.;
    replays = 0;
  }

let touch t layer =
  if t.current < 0 then t.current <- layer
  else if t.current <> layer then t.mixed <- true

let marker_app t =
  {
    (Sdnctl.Controller.no_op_app "trace-marker") with
    Sdnctl.Controller.packet_in =
      (fun _ _ ~in_port:_ _ _ ->
        touch t controller;
        false);
  }

let dummy =
  Packet.arp_request ~src_mac:Netpkt.Mac_addr.zero ~src_ip:(D.host_ip 0)
    ~target_ip:(D.host_ip 0)

(* Install the taps on a freshly warmed deployment, right before its
   measured phase. *)
let attach t (d : D.t) =
  let tap node layer = Node.add_tap node (fun _ _ _ -> touch t layer) in
  Array.iter (fun h -> tap (Host.node h) host) d.D.hosts;
  let switch layer sw =
    let c =
      {
        switch = sw;
        frames = Array.make capture_capacity dummy;
        ports = Array.make capture_capacity 0;
        n = 0;
        rx = 0;
      }
    in
    t.captures <- t.captures @ [ c ];
    Node.add_tap (Sw.node sw) (fun dir port pkt ->
        touch t layer;
        match dir with
        | Node.Rx ->
            c.rx <- c.rx + 1;
            if c.n < capture_capacity then begin
              c.frames.(c.n) <- pkt;
              c.ports.(c.n) <- port;
              c.n <- c.n + 1
            end
        | Node.Tx -> ())
  in
  t.captures <- [];
  match d.D.kind with
  | D.Harmless { legacy; prov; _ } ->
      tap (Ethswitch.Legacy_switch.node legacy) ethswitch;
      switch ss1 prov.Harmless.Manager.ss1;
      switch ss2 prov.Harmless.Manager.ss2
  | D.Plain_openflow { switch = sw } -> switch ss2 sw
  | D.Legacy_only _ | D.Scaled _ -> invalid_arg "Layers.attach: no software switch"

let run t engine ~until =
  let start = clock_ns () in
  let continue = ref true in
  let steps = ref 0 in
  while !continue do
    t.current <- -1;
    t.mixed <- false;
    let before = Engine.events_executed engine in
    let w0 = Gc.minor_words () in
    let t0 = clock_ns () in
    Engine.run engine ~until ~max_events:1;
    let t1 = clock_ns () in
    let w1 = Gc.minor_words () in
    if Engine.events_executed engine = before then continue := false
    else begin
      let l = if t.current < 0 then agent else t.current in
      t.ns.(l) <- t.ns.(l) + (t1 - t0);
      t.words.(l) <- t.words.(l) +. (w1 -. w0);
      t.events.(l) <- t.events.(l) + 1;
      if t.mixed then t.mixed_events <- t.mixed_events + 1;
      incr steps;
      if !steps land 1023 = 0 then t.pending <- Engine.pending engine :: t.pending
    end
  done;
  t.wall_ns <- t.wall_ns + (clock_ns () - start)

(* Mean wall ns and minor words per call of [f i], [i < n], repeating
   whole passes until they cover at least 20 ms. *)
let per_call ~n f =
  if n = 0 then (0., 0.)
  else begin
    let ns = ref 0 and words = ref 0. and calls = ref 0 in
    while !ns < 20_000_000 do
      let w0 = Gc.minor_words () in
      let t0 = clock_ns () in
      for i = 0 to n - 1 do
        f i
      done;
      ns := !ns + (clock_ns () - t0);
      words := !words +. (Gc.minor_words () -. w0);
      calls := !calls + n
    done;
    (float_of_int !ns /. float_of_int !calls, !words /. float_of_int !calls)
  end

let replay t engine =
  let now_ns = Sim_time.to_ns (Engine.now engine) in
  List.iter
    (fun c ->
      let ns, words =
        per_call ~n:(Stdlib.min c.n pipeline_frames) (fun i ->
            ignore
              (Sys.opaque_identity
                 (Sw.process_direct c.switch ~now_ns ~in_port:c.ports.(i) c.frames.(i))))
      in
      t.pipeline_ns <- t.pipeline_ns +. (ns *. float_of_int c.rx);
      t.pipeline_words <- t.pipeline_words +. (words *. float_of_int c.rx))
    t.captures;
  let frames = Array.concat (List.map (fun c -> Array.sub c.frames 0 c.n) t.captures) in
  let n = Stdlib.min (Array.length frames) capture_capacity in
  let tag = Netpkt.Vlan.make 100 in
  let ops =
    [
      (fun i -> ignore (Sys.opaque_identity (Packet.Fields.of_packet frames.(i))));
      (fun i ->
        ignore (Sys.opaque_identity (Packet.pop_vlan (Packet.push_vlan tag frames.(i)))));
      (fun i -> ignore (Sys.opaque_identity (Packet.wire_size frames.(i))));
    ]
  in
  List.iteri
    (fun k f ->
      let ns, words = per_call ~n f in
      t.netpkt.(2 * k) <- t.netpkt.(2 * k) +. ns;
      t.netpkt.((2 * k) + 1) <- t.netpkt.((2 * k) + 1) +. words)
    ops;
  t.replays <- t.replays + 1
