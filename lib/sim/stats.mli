(** Measurement helpers: scalar summaries, latency histograms and
    declared-counter registries, shared by the kernel instrumentation and
    the benches. *)

(** Running summary of a series of observations. *)
type summary

(** [keep_samples] (default true) retains a bounded reservoir of
    observations so percentiles can be computed; memory stays fixed no
    matter how many samples are added. Disable to skip the reservoir. *)
val summary : ?keep_samples:bool -> unit -> summary

val add : summary -> float -> unit

(** Record a nanosecond duration. *)
val add_ns : summary -> int64 -> unit

val count : summary -> int

val sum : summary -> float

val mean : summary -> float

val max_value : summary -> float

(** [percentile s 50.] is the median, estimated from the reservoir.
    Requires [keep_samples]. The sorted view is cached between adds, so
    repeated queries are cheap. *)
val percentile : summary -> float -> float

(** {2 Latency histograms}

    A log-bucket histogram over nanosecond durations: fixed power-of-two
    buckets for a compact exportable shape, plus an embedded reservoir
    summary for accurate percentiles. *)

type histogram

val histogram : unit -> histogram

val hist_add : histogram -> int64 -> unit

(** Test hook. The bucket [hist_add] files a duration under:
    [floor (log2 ns)], with [ns <= 1] in bucket 0. *)
val bucket_of_ns : int64 -> int

val hist_count : histogram -> int

val hist_mean : histogram -> float

val hist_min : histogram -> float

val hist_max : histogram -> float

(** [hist_percentile h 99.] estimates p99 in nanoseconds. *)
val hist_percentile : histogram -> float -> float

(** Non-empty buckets as [(lo_ns, hi_ns, count)], ascending; bucket
    [i > 0] covers durations in [[2^i, 2^(i+1))] ns. *)
val hist_nonempty : histogram -> (int64 * int64 * int) list

(** {2 Declared counters}

    Kernel event counters. Each is declared once, at module
    initialisation, in the style of [Rpc.Op.declare]; a bump is then an
    array increment on a registry. *)

type counter_id

(** Declare a counter. Raises [Invalid_argument] on a duplicate [name] or
    when called off the main domain. *)
val declare : name:string -> unit:string -> doc:string -> counter_id

(** Test hook. Every declaration as [(name, unit, doc)], in declaration
    order. *)
val declared : unit -> (string * string * string) list

(** One set of counts (a cell's, or the system's): a slot for every
    counter declared when it was created. *)
type registry

val registry : unit -> registry

val bump : ?by:int -> registry -> counter_id -> unit

(** The count of the counter named [name]; 0 if it was never bumped.
    Raises [Invalid_argument] if no module declared [name], so a renamed
    counter cannot silently read as 0. *)
val value : registry -> string -> int

(** [(name, count)] for exactly the counters bumped at least once
    ([~by:0] included), sorted by name. *)
val to_list : registry -> (string * int) list
