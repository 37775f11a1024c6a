(** Typed structured-event bus for the simulation.

    Subsystems emit *spans* (begin/end pairs bracketing an operation) and
    *instants* (point events) stamped with the virtual clock; each event
    carries a category, the owning cell, the emitting simulation thread and
    a list of key/value fields. Events flow to pluggable sinks: an
    in-memory ring buffer (tests, post-mortem), a JSONL stream, and a
    Chrome `trace_event` file loadable in chrome://tracing / Perfetto.

    Emission is free when no sink is attached (a single list check), so
    instrumentation can stay on hot paths unconditionally. *)

type value =
  | Int of int
  | I64 of int64
  | Float of float
  | Str of string
  | Bool of bool

type category =
  | Rpc
  | Syscall
  | Firewall
  | Recovery
  | Gate
  | Page
  | Proc
  | Workload
  | Custom of string

type phase = Begin | End | Instant | Counter

type t = {
  ts : int64;  (** virtual time, ns *)
  cat : category;
  name : string;
  phase : phase;
  cell : int;  (** owning cell, or -1 for system-wide *)
  tid : int;  (** emitting simulation thread *)
  args : (string * value) list;
}

type sink = { emit : t -> unit; flush : unit -> unit }

type bus

val create : Engine.t -> bus

(** Add a sink; sinks see events in the order they were attached. *)
val attach : bus -> sink -> unit

(** Is any sink attached? Callers test this before building [args]. *)
val enabled : bus -> bool

val instant :
  bus -> ?cell:int -> ?args:(string * value) list -> cat:category ->
  string -> unit

(** Run [f] inside a span. The [End] event is emitted even if [f] raises
    (including thread kill during recovery), so span trees stay
    balanced. *)
val span :
  bus -> ?cell:int -> ?args:(string * value) list -> cat:category ->
  string -> (unit -> 'a) -> 'a

(** {2 Ring-buffer sink} *)

type ring

(** Keeps the last [capacity] events; raises [Invalid_argument] unless
    [capacity] is positive. *)
val ring : capacity:int -> ring

val ring_sink : ring -> sink

(** Buffered events, oldest first. *)
val ring_contents : ring -> t list

(** Events ever emitted to the ring, including overwritten ones. *)
val ring_total : ring -> int

(** {2 File sinks} *)

(** One Chrome trace_event JSON object per line. *)
val jsonl_sink : out_channel -> sink

(** Attach a Chrome trace file at [path], when one is given; returns the
    function that terminates the JSON array and closes the file. *)
val attach_chrome_file : bus -> string option -> unit -> unit
