(* Engine-order golden: prints the [(name, time)] trace of seeded random
   thread programs, one line per observation. The trace is diffed against
   [engine-order.expected], so any change to the engine's total event
   order (keys, jitter draws, inline wake-ups, the same-instant lane,
   [run ~until] and [stop]) shows up as a moved line. Re-baseline a
   deliberate change with [dune promote].

   The programs cover delays from 1 ns up to an overflowing clamp, spawns
   with and without [~at], zero-delay, absolute and cancelled timers,
   mailbox and ivar wakes (with and without timeouts), kills, exit hooks,
   [run ~until] steps (including steps that end at the current instant
   or below it) and [stop], on odd seeds with scheduler jitter. *)

module E = Sim.Engine

let seeds = 32

let buf = Buffer.create (1 lsl 16)

let line fmt = Printf.bprintf buf (fmt ^^ "\n")

(* Delays span 1 ns to ~1 ms, plus the odd [Int64.max_int]: from a
   nonzero clock its sum overflows and clamps to the current instant. *)
let draw_delay rng =
  match Sim.Prng.int rng 16 with
  | 0 -> 1L
  | 1 -> if Sim.Prng.int rng 6 = 0 then Int64.max_int else 2L
  | 2 | 3 | 4 -> Int64.of_int (1 + Sim.Prng.int rng 8)
  | 5 | 6 | 7 | 8 -> Int64.of_int (10 * (1 + Sim.Prng.int rng 10))
  | 9 | 10 | 11 -> Int64.of_int (100 * (1 + Sim.Prng.int rng 50))
  | _ -> Int64.of_int (1 + Sim.Prng.int rng 1_000_000)

let program seed =
  let eng = E.create () in
  let jittered = seed land 1 = 1 in
  if jittered then
    E.set_jitter eng (Some (Sim.Prng.of_int64 (Int64.of_int (0x5eed + seed))));
  line "seed %d jitter %b" seed jittered;
  let note name = line "%s %Ld" name (E.time ()) in
  let note_cb name = line "%s %Ld" name (E.now eng) in
  let nboxes = 3 in
  let boxes = Array.init nboxes (fun _ -> Sim.Mailbox.create ()) in
  let ivars = Array.init 4 (fun _ -> Sim.Ivar.create ()) in
  let threads = ref [||] in
  let add_thread thr = threads := Array.append !threads [| thr |] in
  let rec body name depth rng () =
    let timers = ref [] in
    let steps = 10 + Sim.Prng.int rng 30 in
    for step = 1 to steps do
      let tag what = Printf.sprintf "%s.%d %s" name step what in
      match Sim.Prng.int rng 20 with
      | 0 | 1 | 2 | 3 | 4 | 5 ->
        E.delay (draw_delay rng);
        note (tag "delay")
      | 6 ->
        let d = if Sim.Prng.bool rng then 0L else draw_delay rng in
        timers :=
          E.timer eng ~after:d (fun () -> note_cb (tag "timer"))
          :: !timers
      | 7 -> (
        match !timers with
        | tm :: rest ->
          E.cancel tm;
          timers := rest;
          note (tag "cancel")
        | [] -> note (tag "no timer"))
      | 8 ->
        (* absolute time, possibly in the past (clamped to now) *)
        let at =
          Int64.add (E.time ()) (Int64.of_int (Sim.Prng.int rng 300 - 100))
        in
        ignore (E.schedule_at eng at (fun () -> note_cb (tag "at")))
      | 9 when depth < 2 ->
        let child = Printf.sprintf "%s/%d" name step in
        let crng = Sim.Prng.of_int64 (Sim.Prng.next rng) in
        let at =
          if Sim.Prng.bool rng then None
          else
            Some
              (Int64.add (E.time ())
                 (Int64.of_int (Sim.Prng.int rng 4 * Sim.Prng.int rng 200)))
        in
        add_thread
          (E.spawn eng ~name:child ?at
             ~on_exit:(fun () -> note_cb (child ^ " exit"))
             (body child (depth + 1) crng));
        note (tag "spawn")
      | 10 | 11 ->
        Sim.Mailbox.send eng boxes.(Sim.Prng.int rng nboxes) (tag "msg");
        note (tag "send")
      | 12 | 13 -> (
        let timeout =
          if Sim.Prng.bool rng then None else Some (draw_delay rng)
        in
        match
          Sim.Mailbox.receive ?timeout eng boxes.(Sim.Prng.int rng nboxes)
        with
        | Some m -> note (tag ("got " ^ m))
        | None -> note (tag "recv timeout"))
      | 14 ->
        let v = ivars.(Sim.Prng.int rng (Array.length ivars)) in
        if not (Sim.Ivar.is_filled v) then begin
          Sim.Ivar.fill eng v (tag "fill");
          note (tag "fill")
        end
        else note (tag "filled")
      | 15 | 16 -> (
        let timeout =
          if Sim.Prng.bool rng then None else Some (draw_delay rng)
        in
        match
          Sim.Ivar.read ?timeout eng ivars.(Sim.Prng.int rng (Array.length ivars))
        with
        | Some v -> note (tag ("read " ^ v))
        | None -> note (tag "read timeout"))
      | 17 when Sim.Prng.int rng 3 = 0 ->
        let ts = !threads in
        let victim = ts.(Sim.Prng.int rng (Array.length ts)) in
        note (tag ("kill " ^ victim.E.name));
        E.kill eng victim
      | 18 ->
        let s = tag "exit hook" in
        E.at_exit_thread (fun () -> note_cb s);
        note (tag "hook")
      | _ ->
        E.delay 0L;
        note (tag "yield")
    done
  in
  let rng = Sim.Prng.of_int64 (Int64.of_int (0xc0de + (7 * seed))) in
  let nthreads = 2 + Sim.Prng.int rng 4 in
  for i = 0 to nthreads - 1 do
    let name = Printf.sprintf "t%d" i in
    let trng = Sim.Prng.of_int64 (Sim.Prng.next rng) in
    let at =
      if i land 1 = 0 then None else Some (Int64.of_int (Sim.Prng.int rng 50))
    in
    add_thread
      (E.spawn eng ~name ?at
         ~on_exit:(fun () -> note_cb (name ^ " exit"))
         (body name 0 trng))
  done;
  (* A stray stop request lands mid-run now and then. *)
  for _ = 1 to Sim.Prng.int rng 3 do
    let at = Int64.of_int (Sim.Prng.int rng 5_000) in
    ignore
      (E.schedule_at eng at (fun () ->
           note_cb "stop";
           E.stop eng))
  done;
  let show = function None -> "none" | Some t -> Int64.to_string t in
  let rec drive steps =
    match E.next_event_time eng with
    | None -> ()
    | Some _ when steps = 0 -> E.run eng
    | Some next ->
      let now = E.now eng in
      (* Mostly run past the next event; now and then stop at the
         current instant, just short of the next event, or (rarely)
         just below the clock, which [run] clamps to the clock. *)
      let until =
        match Sim.Prng.int rng 16 with
        | 0 | 1 -> now
        | 2 -> if Int64.compare next now > 0 then Int64.pred next else now
        | 3 -> if Int64.compare now 0L > 0 then Int64.pred now else now
        | _ ->
          let u = Int64.add next (Int64.of_int (Sim.Prng.int rng 400_000)) in
          if Int64.compare u next < 0 then Int64.max_int else u
      in
      line "run next %Ld until %Ld" next until;
      E.run ~until eng;
      line "ran now %Ld next %s cancelled %d" (E.now eng)
        (show (E.next_event_time eng))
        (E.cancelled_pending eng);
      drive (steps - 1)
  in
  drive 60;
  line "end now %Ld events %d live %d cancelled %d" (E.now eng)
    (E.events_scheduled eng) (E.live_threads eng) (E.cancelled_pending eng)

let () =
  for seed = 0 to seeds - 1 do
    program seed
  done;
  print_string (Buffer.contents buf)
