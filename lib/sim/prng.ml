(* The state lives unboxed in 8 bytes: a [mutable state : int64] field
   would allocate a fresh boxed int64 on every draw, and the engine draws
   one per scheduled event under jitter. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (Int64.of_int (seed lxor 0x5851f42d))

let of_int64 seed = of_state (Int64.logxor seed 0x5851F42D4C957F2DL)

(* splitmix64: tiny, fast, and good enough for workload synthesis. *)
let[@inline] next t =
  let open Int64 in
  let z = add (get_state t 0) 0x9E3779B97F4A7C15L in
  set_state t 0 z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* A power-of-two bound (the engine's jitter draws [int p 8] per event)
   takes the low bits directly: the same value as the remainder, without
   a 64-bit division. *)
let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let v = Int64.shift_right_logical (next t) 1 in
  if bound land (bound - 1) = 0 then Int64.to_int v land (bound - 1)
  else Int64.to_int (Int64.rem v (Int64.of_int bound))

let int64 t bound =
  if Int64.compare bound 0L <= 0 then invalid_arg "Prng.int64";
  Int64.rem (Int64.shift_right_logical (next t) 1) bound

let float t =
  let x = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  x /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (next t) 1L = 1L

(* [float t] is in [0, 1), so [1 - u] is in (0, 1] and the log is finite. *)
let exponential t ~mean =
  if mean <= 0. then invalid_arg "Prng.exponential: mean must be positive";
  -.mean *. log (1. -. float t)

(* Zipf popularity over ranks 0..n-1: rank i has weight 1/(i+1)^s. The
   normalized CDF is precomputed once so each draw is one uniform plus a
   binary search. *)
type zipf = { zcdf : float array }

let zipf ~n ~s =
  if n <= 0 then invalid_arg "Prng.zipf: n must be positive";
  if s < 0. then invalid_arg "Prng.zipf: s must be non-negative";
  let zcdf = Array.make n 0. in
  let total = ref 0. in
  for i = 0 to n - 1 do
    total := !total +. (1. /. Float.pow (float_of_int (i + 1)) s);
    zcdf.(i) <- !total
  done;
  for i = 0 to n - 1 do
    zcdf.(i) <- zcdf.(i) /. !total
  done;
  { zcdf }

let zipf_draw t z =
  let u = float t in
  let n = Array.length z.zcdf in
  (* First rank whose cumulative weight exceeds u. *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.zcdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo
