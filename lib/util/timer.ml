(* Wall-clock deltas are clamped to >= 0: [Unix.gettimeofday] is not
   monotonic, and an NTP step between the two readings would otherwise
   yield a negative elapsed time that poisons [best_of] minima. *)
let clamp dt = if dt > 0.0 then dt else 0.0

let time f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let t1 = Unix.gettimeofday () in
  (result, clamp (t1 -. t0))

let best_of ?(repeats = 3) f =
  if repeats < 1 then invalid_arg "Timer.best_of: repeats < 1";
  let best = ref infinity in
  for _ = 1 to repeats do
    let (), dt = time f in
    if dt < !best then best := dt
  done;
  !best
