(** A minimal JSON document model with a printer and parser, shared by the
    metrics snapshot ([Hive.Metrics.Snapshot]) and the benchmark trajectory
    files ([BENCH_<area>.json]). The simulator deliberately has no external
    dependencies, so this is the one JSON implementation in the tree.

    The printer is lossless for every value the parser can produce:
    [of_string (to_string v) = Ok v] whenever [v] contains no non-finite
    floats (JSON cannot represent nan/infinity; the printer emits [null]
    for them, so guard upstream). *)

type t =
  | Null
  | Bool of bool
  | Int of int64  (** numbers written without [.], [e] or [E] *)
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** field order is preserved *)

(** Render compactly (no insignificant whitespace) unless [pretty] is set,
    in which case arrays and objects are indented two spaces per level. *)
val to_string : ?pretty:bool -> t -> string

(** Parse a complete JSON document; trailing garbage is an error. Integral
    numbers that fit are [Int], everything else is [Float]. *)
val of_string : string -> (t, string) result

(** Append [s] to the buffer with JSON string escapes (no quotes). *)
val escape_into : Buffer.t -> string -> unit

(** A float representation that survives a print/parse round trip and is
    always valid JSON (never ["1."], ["nan"] or ["inf"]). *)
val float_repr : float -> string

(** {2 Accessors} — each returns [None] on a shape mismatch. *)

(** Field of an object. *)
val member : string -> t -> t option

val to_int_opt : t -> int option

val to_int64_opt : t -> int64 option

(** Accepts both [Int] and [Float]. *)
val to_float_opt : t -> float option

val to_string_opt : t -> string option

val to_bool_opt : t -> bool option

val to_list_opt : t -> t list option

val to_obj_opt : t -> (string * t) list option
