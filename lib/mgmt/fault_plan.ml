open Simnet

type t = {
  rng : Rng.t;
  mutable fail_probability : float;
  mutable forced : int;
  mutable injected : int;
}

let create ?(seed = 1) ?(fail_probability = 0.0) () =
  if fail_probability < 0.0 || fail_probability > 1.0 then
    invalid_arg "Fault_plan.create: fail_probability outside [0, 1]";
  {
    rng = Rng.create seed;
    fail_probability;
    forced = 0;
    injected = 0;
  }

let fail_next t n =
  if n < 0 then invalid_arg "Fault_plan.fail_next: negative";
  t.forced <- t.forced + n

let set_fail_probability t p =
  if p < 0.0 || p > 1.0 then
    invalid_arg "Fault_plan.set_fail_probability: outside [0, 1]";
  t.fail_probability <- p

let should_fail t =
  let fail =
    if t.forced > 0 then begin
      t.forced <- t.forced - 1;
      true
    end
    else
      t.fail_probability > 0.0 && Rng.float t.rng 1.0 < t.fail_probability
  in
  if fail then t.injected <- t.injected + 1;
  fail

let injected t = t.injected
