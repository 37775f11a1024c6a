(* Typed structured-event bus for the simulation.

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

let category_to_string = function
  | Rpc -> "rpc"
  | Syscall -> "syscall"
  | Firewall -> "firewall"
  | Recovery -> "recovery"
  | Gate -> "gate"
  | Page -> "page"
  | Proc -> "proc"
  | Workload -> "workload"
  | Custom s -> s

type phase = Begin | End | Instant | Counter

let phase_to_string = function
  | Begin -> "B"
  | End -> "E"
  | Instant -> "i"
  | Counter -> "C"

type t = {
  ts : int64; (* virtual time, ns *)
  cat : category;
  name : string;
  phase : phase;
  cell : int; (* owning cell, or -1 for system-wide *)
  tid : int; (* emitting simulation thread *)
  args : (string * value) list;
}

type sink = { emit : t -> unit; flush : unit -> unit }

type bus = { eng : Engine.t; mutable sinks : sink list }

let create eng = { eng; sinks = [] }

let attach bus sink = bus.sinks <- bus.sinks @ [ sink ]

let enabled bus = bus.sinks <> []

let flush bus = List.iter (fun s -> s.flush ()) bus.sinks

let emit bus ?(cell = -1) ?(args = []) ~cat ~phase name =
  if bus.sinks <> [] then begin
    let e =
      {
        ts = Engine.now bus.eng;
        cat;
        name;
        phase;
        cell;
        tid = Engine.current_tid bus.eng;
        args;
      }
    in
    List.iter (fun s -> s.emit e) bus.sinks
  end

let instant bus ?cell ?args ~cat name =
  emit bus ?cell ?args ~cat ~phase:Instant name

(* Run [f] inside a span. The [End] event is emitted even if [f] raises
   (including thread kill during recovery), so span trees stay balanced. *)
let span bus ?cell ?args ~cat name f =
  if bus.sinks = [] then f ()
  else begin
    emit bus ?cell ?args ~cat ~phase:Begin name;
    match f () with
    | v ->
      emit bus ?cell ~cat ~phase:End name;
      v
    | exception e ->
      emit bus ?cell ~cat ~phase:End name;
      raise e
  end

(* ---------- Ring-buffer sink ---------- *)

type ring = {
  rbuf : t option array;
  mutable rnext : int;
  mutable rcount : int; (* total events ever emitted *)
}

let ring ~capacity =
  if capacity <= 0 then invalid_arg "Event.ring: capacity must be positive";
  { rbuf = Array.make capacity None; rnext = 0; rcount = 0 }

let ring_sink r =
  {
    emit =
      (fun e ->
        r.rbuf.(r.rnext) <- Some e;
        r.rnext <- (r.rnext + 1) mod Array.length r.rbuf;
        r.rcount <- r.rcount + 1);
    flush = (fun () -> ());
  }

(* Buffered events, oldest first. *)
let ring_contents r =
  let cap = Array.length r.rbuf in
  let n = min r.rcount cap in
  let start = (r.rnext - n + cap) mod cap in
  List.init n (fun i ->
      match r.rbuf.((start + i) mod cap) with
      | Some e -> e
      | None -> assert false)

let ring_total r = r.rcount

(* ---------- JSON helpers (shared by the file sinks) ---------- *)

let json_value b = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | I64 i -> Buffer.add_string b (Int64.to_string i)
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string b (Printf.sprintf "%.0f" f)
    else Buffer.add_string b (Printf.sprintf "%g" f)
  | Str s ->
    Buffer.add_char b '"';
    Json.escape_into b s;
    Buffer.add_char b '"'
  | Bool v -> Buffer.add_string b (if v then "true" else "false")

let json_args b args =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      Json.escape_into b k;
      Buffer.add_string b "\":";
      json_value b v)
    args;
  Buffer.add_char b '}'

(* One event as a Chrome trace_event JSON object. [ts] is microseconds;
   pid is the cell (so each cell gets its own track group) and tid the
   simulation thread, which makes B/E pairs nest correctly. *)
let event_to_json e =
  let b = Buffer.create 160 in
  Buffer.add_string b "{\"name\":\"";
  Json.escape_into b e.name;
  Buffer.add_string b "\",\"cat\":\"";
  Buffer.add_string b (category_to_string e.cat);
  Buffer.add_string b "\",\"ph\":\"";
  Buffer.add_string b (phase_to_string e.phase);
  Buffer.add_string b "\",\"ts\":";
  Buffer.add_string b (Printf.sprintf "%.3f" (Int64.to_float e.ts /. 1e3));
  (match e.phase with
  | Instant -> Buffer.add_string b ",\"s\":\"t\""
  | Begin | End | Counter -> ());
  Buffer.add_string b ",\"pid\":";
  Buffer.add_string b (string_of_int (if e.cell < 0 then 999 else e.cell));
  Buffer.add_string b ",\"tid\":";
  Buffer.add_string b (string_of_int e.tid);
  if e.args <> [] then begin
    Buffer.add_string b ",\"args\":";
    json_args b e.args
  end;
  Buffer.add_char b '}';
  Buffer.contents b

(* ---------- JSONL sink: one JSON object per line ---------- *)

let jsonl_sink oc =
  {
    emit =
      (fun e ->
        output_string oc (event_to_json e);
        output_char oc '\n');
    flush = (fun () -> Stdlib.flush oc);
  }

(* ---------- Chrome trace_event sink: a JSON array ---------- *)

(* Write Chrome trace_event objects to [oc] as one JSON array. Returns
   the sink and a terminator function that closes the array (without
   closing [oc], which the caller owns). [flush] only flushes the
   channel — it must NOT emit the `]` and reopen a fresh `[`, which
   used to leave a flushed-then-continued trace as two concatenated
   JSON arrays that Perfetto rejects; only the terminator writes `]`.
   Chrome's parser tolerates a missing terminator, so a crashed run's
   partial trace still loads. *)
let chrome_sink oc =
  let first = ref true in
  output_string oc "[\n";
  let sink =
    {
      emit =
        (fun e ->
          if !first then first := false else output_string oc ",\n";
          output_string oc (event_to_json e));
      flush = (fun () -> Stdlib.flush oc);
    }
  in
  let terminate () =
    output_string oc "\n]\n";
    Stdlib.flush oc
  in
  (sink, terminate)

(* Attach a Chrome trace file at [path], when one is given, to [t];
   returns the function that terminates the JSON array and closes the
   file. *)
let attach_chrome_file t = function
  | None -> ignore
  | Some path ->
    let oc = open_out path in
    let sink, terminate = chrome_sink oc in
    attach t sink;
    fun () ->
      terminate ();
      close_out oc
