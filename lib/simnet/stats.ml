(* Kept only because the end-to-end benchmark names [Stats.Histogram];
   new code uses [Telemetry.Hdr] directly. *)
module Histogram = Telemetry.Hdr
