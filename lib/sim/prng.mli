(** Deterministic pseudo-random number generator (splitmix64).

    Simulations must be reproducible, so no global or OS randomness is used
    anywhere in the repository; every source of variation derives from a
    seeded [Prng.t]. *)

type t

val create : int -> t

(** Seed from a full 64-bit value (fuzzer seeds are 64-bit; [create] folds
    through [int] and loses the sign bit). *)
val of_int64 : int64 -> t

(** Next raw 64-bit value. *)
val next : t -> int64

(** Uniform integer in [\[0, bound)]. *)
val int : t -> int -> int

(** Uniform int64 in [\[0, bound)]. *)
val int64 : t -> int64 -> int64

(** Uniform float in [\[0, 1)]. *)
val float : t -> float

val bool : t -> bool

(** Exponentially distributed value with the given mean (e.g. Poisson
    inter-arrival gaps). Raises on a non-positive mean. *)
val exponential : t -> mean:float -> float

(** Zipf popularity distribution over ranks [0..n-1]: rank [i] has weight
    [1/(i+1)^s] ([s = 0] is uniform). The CDF is precomputed at [zipf]
    time so each {!zipf_draw} is one uniform plus a binary search. *)
type zipf

val zipf : n:int -> s:float -> zipf

(** Draw a rank in [\[0, n)] from the distribution. *)
val zipf_draw : t -> zipf -> int
