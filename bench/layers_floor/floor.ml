(* The traced loop's own cost per event, for the layer-attribution check.

   [Layers.run] (bench/e2e/layers.ml, linked here unchanged) times each
   event from outside: it reads the clock and the GC word counter around
   one [Engine.run ~max_events:1] call.  Part of that work falls between
   the measured slices, and the call itself allocates inside them.  This
   runs the same loop over events that do nothing and prints, as one JSON
   line, the median over a few runs of

   - [outside_ns_per_event]: wall ns per event spent outside the slices;
   - [words_per_event]: minor words per event inside them.

     dune exec bench/layers_floor/floor.exe *)

open Simnet

(* About the queue depth of a hairpin run. *)
let chains = 256
let events = 200_000
let runs = 7

let once () =
  let engine = Engine.create () in
  let period = Sim_time.ns chains in
  for i = 1 to chains do
    let rec tick () = Engine.schedule_after engine period tick in
    Engine.schedule_at engine (Sim_time.of_ns i) tick
  done;
  let tr = Layers.create () in
  Layers.run tr engine ~until:(Sim_time.of_ns events);
  let n = float_of_int (Array.fold_left ( + ) 0 tr.Layers.events) in
  let inside = Array.fold_left ( + ) 0 tr.Layers.ns in
  ( float_of_int (tr.Layers.wall_ns - inside) /. n,
    Array.fold_left ( +. ) 0. tr.Layers.words /. n )

let () =
  let rs = List.init runs (fun _ -> once ()) in
  let median l = List.nth (List.sort compare l) (List.length l / 2) in
  Printf.printf "{\"outside_ns_per_event\":%.2f,\"words_per_event\":%.3f}\n"
    (median (List.map fst rs)) (median (List.map snd rs))
