(* server: an interactive time-sharing traffic workload — the paper's
   Hive pitch is that a cell failure looks like a partial outage, not a
   crash, to users of the surviving cells. This workload quantifies that:
   open-loop Poisson request arrivals on every cell, Zipf file popularity
   over files spread across data homes, plus fork/exit churn storms, with
   a cell killed mid-traffic.

   Clients give every request an end-to-end deadline budget and spend it
   across redirect legs ({!Hive.Rpc.call} [?deadline_ns]); servers shed
   sheddable requests with EBUSY when their queued-service backlog hits
   [Params.rpc_queue_bound] or while their cell is mid-recovery. Request
   latencies are classified post-hoc into before/during/after-failure
   phases and recorded in [sys.op_ns], so [Metrics.capture] exports
   p50/p95/p99/p99.9 per class and phase. *)

module Count = struct
  let churn_forks =
    Sim.Stats.declare ~name:"server.churn_forks" ~unit:"count"
      ~doc:"processes forked by server churn"
  let churns =
    Sim.Stats.declare ~name:"server.churns" ~unit:"count"
      ~doc:"server churn operations completed"
  let handler_errors =
    Sim.Stats.declare ~name:"server.handler_errors" ~unit:"count"
      ~doc:"server requests whose handler failed"
  let reads =
    Sim.Stats.declare ~name:"server.reads" ~unit:"count"
      ~doc:"server reads served"
end

type fault = {
  kill_cell : int; (* cell fail-stopped mid-traffic *)
  at_ms : int; (* injection time, relative to traffic start *)
}

(* The request shape every run uses. *)
let file_pages = 4 (* size of each served file *)

let read_pages = 2 (* pages fetched per read request *)

let service_ns = 200_000L (* server-side think time per read *)

let churn_forks = 2 (* fork/exit storm size per churn request *)

let churn_compute_ns = 2_000_000L (* work of each churn process *)

let remote_pct = 10 (* % of reads sent to a non-home cell first *)

type cfg = {
  duration_ms : int;
  rate_rps : float; (* system-wide arrival rate (open loop) *)
  zipf_s : float; (* file popularity skew; 0 = uniform *)
  nfiles : int;
  churn_pct : int; (* % of arrivals that are churn requests *)
  deadline_ms : int; (* end-to-end client budget per request *)
  fault : fault option;
  seed : int64;
}

let default =
  {
    duration_ms = 3_000;
    rate_rps = 80.;
    zipf_s = 1.1;
    nfiles = 64;
    churn_pct = 10;
    deadline_ms = 250;
    fault = None;
    seed = 0x5EEDL;
  }

(* What the traffic saw, end to end. [fail_fast_max_ns] is the headline
   containment number: the longest any client waited before learning its
   request could not be served — it must stay within the deadline budget. *)
type stats = {
  arrivals : int;
  skipped : int; (* arrivals on a dead client cell: never issued *)
  reads_served : int; (* clean: no failed leg *)
  reads_redirected : int; (* served after >= 1 failed leg *)
  fail_fast : int; (* errored out with budget left *)
  deadline_exceeded : int;
  client_lost : int; (* issuing cell died before completion *)
  shed_legs : int; (* EBUSY refusals observed client-side *)
  churn_sent : int;
  churn_ok : int;
  fault_at_ns : int64 option;
  recovered_at_ns : int64 option;
  fail_fast_max_ns : int64;
  errors : int; (* unexpected traffic-thread exceptions; 0 when correct *)
}

type Hive.Types.payload +=
    P_srv_read of { path : string }
  | P_srv_data of { bytes : int }
  | P_srv_churn of { path : string }

(* Interactive ops are declared sheddable: unlike kernel RPCs, refusing
   one loses no kernel state — the client redirects or gives the user an
   error — so the server may protect itself under overload. *)
let read_op =
  Hive.Rpc.Op.declare ~idempotent:true ~sheddable:true ~arg_bytes:64
    ~reply_bytes:4096 "server.read"

let churn_op =
  Hive.Rpc.Op.declare ~sheddable:true ~arg_bytes:64 ~reply_bytes:16
    "server.churn"

(* Queued bodies run on a cell's RPC pool threads, which are kernel
   threads: an uncaught exception there panics the cell, so everything
   except [Killed] is turned into an errno. *)
let guard (c : Hive.Types.cell) f =
  try f () with
  | Sim.Engine.Killed as k -> raise k
  | Hive.Fs.Stale e -> Error e
  | Hive.Types.Syscall_error e -> Error e
  | _ ->
    Hive.Types.bump c Count.handler_errors;
    Error Hive.Types.EIO

let read_handler sys (c : Hive.Types.cell) ~src:_ payload =
  match payload with
  | P_srv_read { path } ->
    Hive.Types.Queued
      (fun () ->
        guard c (fun () ->
            let home = Hive.Fs.home_of_path sys path in
            (* Fast fail: asking this cell to serve data homed on a cell
               it believes dead would just burn the pool thread on a
               doomed import — answer EHOSTDOWN immediately instead. *)
            if
              home <> c.Hive.Types.cell_id
              && not (List.mem home c.Hive.Types.live_set)
            then Error Hive.Types.EHOSTDOWN
            else
              match Hive.Fs.open_file sys c ~path with
              | Error e -> Error e
              | Ok (vn, gen) ->
                let len = read_pages * Flash.Config.page_size in
                let r =
                  Hive.Fs.read sys c vn ~opened_gen:gen ~pos:0 ~len
                in
                Hive.Fs.release_file_imports sys c vn;
                (match r with
                | Error e -> Error e
                | Ok b ->
                  Sim.Engine.delay service_ns;
                  Hive.Types.bump c Count.reads;
                  Ok (P_srv_data { bytes = Bytes.length b }))))
  | _ -> Hive.Types.Immediate (Error Hive.Types.EBADF)

let churn_handler sys (c : Hive.Types.cell) ~src:_ payload =
  match payload with
  | P_srv_churn { path } ->
    Hive.Types.Queued
      (fun () ->
        guard c (fun () ->
            let r =
              match Hive.Fs.open_file sys c ~path with
              | Error e -> Error e
              | Ok (vn, gen) ->
                let r =
                  Hive.Fs.read sys c vn ~opened_gen:gen ~pos:0
                    ~len:Flash.Config.page_size
                in
                Hive.Fs.release_file_imports sys c vn;
                Result.map (fun _ -> ()) r
            in
            (* Fork/exit storm: short-lived processes that compute and
               exit, stressing process create/teardown on the serving
               cell while traffic is in flight. *)
            for k = 1 to churn_forks do
              Hive.Types.bump c Count.churn_forks;
              ignore
                (Hive.Process.spawn sys c
                   ~name:(Printf.sprintf "churn.c%d.%d" c.Hive.Types.cell_id k)
                   (fun sys p -> Hive.Syscall.compute sys p churn_compute_ns))
            done;
            Hive.Types.bump c Count.churns;
            Result.map (fun () -> Hive.Types.P_unit) r))
  | _ -> Hive.Types.Immediate (Error Hive.Types.EBADF)

let () =
  Hive.Rpc.serve read_op read_handler;
  Hive.Rpc.serve churn_op churn_handler

let register_ops () = ()

(* ---------- client side ---------- *)

type rec_ = {
  r_arrival : int64;
  r_latency : int64;
  r_klass : string;
}

type state = {
  mutable recs : rec_ list; (* reverse arrival-completion order *)
  mutable outstanding : int;
  mutable frontends : int;
  mutable arrivals : int;
  mutable skipped : int;
  mutable shed_legs : int;
  mutable churn_sent : int;
  mutable churn_ok : int;
  mutable client_lost : int;
  mutable errors : int;
  mutable fault_seen : int64 option;
  mutable recovered_at : int64 option;
  t_end : int64;
  paths : string array;
}

let ms_ns m = Int64.mul (Int64.of_int m) 1_000_000L

(* File [i] is probed onto data home [i mod ncells], so Zipf popularity
   weight is spread evenly and killing any one cell takes out ~1/ncells
   of the traffic's data. *)
let setup cfg (sys : Hive.Types.system) =
  let ncells = Array.length sys.Hive.Types.cells in
  let psize = Flash.Config.page_size in
  Array.init cfg.nfiles (fun i ->
      let want = i mod ncells in
      let rec probe s =
        let p = Printf.sprintf "/srv/f%d.%d" i s in
        if Hive.Fs.home_of_path sys p = want then p else probe (s + 1)
      in
      let path = probe 0 in
      let content =
        Workload.synth_content ~tag:path ~bytes:(file_pages * psize)
      in
      ignore
        (Hive.Fs.create_local sys
           sys.Hive.Types.cells.(Hive.Fs.home_of_path sys path)
           ~path ~content);
      path)

let record st ~arrival ~klass =
  let lat = Int64.sub (Sim.Engine.time ()) arrival in
  st.recs <-
    { r_arrival = arrival; r_latency = lat; r_klass = klass }
    :: st.recs

(* Redirect order: the chosen first target, then the data home, then the
   remaining cells ascending. *)
let targets ncells home alt =
  let primary = (home + alt) mod ncells in
  let order = primary :: home :: List.init ncells (fun i -> i) in
  let rec dedup seen = function
    | [] -> []
    | t :: rest ->
      if List.mem t seen then dedup seen rest
      else t :: dedup (t :: seen) rest
  in
  dedup [] order

let do_read st cfg (sys : Hive.Types.system) (client : Hive.Types.cell)
    ~rank ~alt ~arrival =
  let eng = sys.Hive.Types.eng in
  let ncells = Array.length sys.Hive.Types.cells in
  let path = st.paths.(rank) in
  let home = rank mod ncells in
  let tgts = targets ncells home alt in
  let t_deadline = Int64.add arrival (ms_ns cfg.deadline_ms) in
  (* Split the budget across legs so one dead target cannot eat it all:
     a leg gets budget/legs, and whatever a fast leg leaves unspent stays
     available to the later ones. *)
  let leg_budget =
    Int64.div (ms_ns cfg.deadline_ms) (Int64.of_int (List.length tgts))
  in
  let payload = P_srv_read { path } in
  let err_legs = ref 0 in
  let finish klass =
    if client.Hive.Types.cstatus <> Hive.Types.Cell_up then
      st.client_lost <- st.client_lost + 1
    else record st ~arrival ~klass
  in
  let leg tgt =
    let remaining = Int64.sub t_deadline (Sim.Engine.now eng) in
    if Int64.compare remaining 0L <= 0 then `Budget_gone
    else
      let d =
        if Int64.compare remaining leg_budget < 0 then remaining
        else leg_budget
      in
      match
        Hive.Rpc.call sys ~from:client ~target:tgt ~op:read_op ~deadline_ns:d
          payload
      with
      | Ok _ -> `Served
      | Error e ->
        incr err_legs;
        if e = Hive.Types.EBUSY then st.shed_legs <- st.shed_legs + 1;
        `Failed
  in
  let rec pass tgs retried =
    match tgs with
    | [] ->
      if Int64.compare (Sim.Engine.now eng) t_deadline >= 0 then
        finish "server.read_deadline"
      else if not retried then begin
        (* One bounded re-pass: a shed or a lost race may clear within
           the budget; more passes would just be a retry storm. *)
        let remaining = Int64.sub t_deadline (Sim.Engine.now eng) in
        Sim.Engine.delay (Int64.min 5_000_000L (Int64.max 0L remaining));
        pass tgts true
      end
      else finish "server.read_failfast"
    | tgt :: rest -> (
      match leg tgt with
      | `Served ->
        finish (if !err_legs = 0 then "server.read" else "server.read_redirected")
      | `Failed -> pass rest retried
      | `Budget_gone -> finish "server.read_deadline")
  in
  pass tgts false

let do_churn st cfg (sys : Hive.Types.system) (client : Hive.Types.cell)
    ~tgt ~rank ~arrival =
  let payload = P_srv_churn { path = st.paths.(rank) } in
  match
    Hive.Rpc.call sys ~from:client ~target:tgt ~op:churn_op
      ~deadline_ns:(ms_ns cfg.deadline_ms) payload
  with
  | Ok _ ->
    st.churn_ok <- st.churn_ok + 1;
    record st ~arrival ~klass:"server.churn"
  | Error _ -> ()

(* Open-loop Poisson frontend, one per cell. Draws happen here, in one
   deterministic stream per cell; the request itself runs in its own
   throwaway thread so a slow request never delays the next arrival. *)
let frontend st cfg (sys : Hive.Types.system) zipfd (c : Hive.Types.cell) =
  let eng = sys.Hive.Types.eng in
  let ncells = Array.length sys.Hive.Types.cells in
  let rng =
    Sim.Prng.of_int64
      (Int64.logxor cfg.seed
         (Int64.mul (Int64.of_int (c.Hive.Types.cell_id + 1))
            0x9E3779B97F4A7C15L))
  in
  let mean_gap = 1e9 *. float_of_int ncells /. cfg.rate_rps in
  let spawn_traffic name body =
    st.outstanding <- st.outstanding + 1;
    ignore
      (Sim.Engine.spawn ~name eng (fun () ->
           Fun.protect
             ~finally:(fun () -> st.outstanding <- st.outstanding - 1)
             (fun () ->
               try body () with
               | Sim.Engine.Killed as k -> raise k
               | _ -> st.errors <- st.errors + 1)))
  in
  let rec loop i =
    let gap = Int64.of_float (Float.max 1. (Sim.Prng.exponential rng ~mean:mean_gap)) in
    if Int64.compare (Int64.add (Sim.Engine.now eng) gap) st.t_end >= 0 then ()
    else begin
      Sim.Engine.delay gap;
      (if c.Hive.Types.cstatus <> Hive.Types.Cell_up then
         st.skipped <- st.skipped + 1
       else begin
         st.arrivals <- st.arrivals + 1;
         let arrival = Sim.Engine.now eng in
         if Sim.Prng.int rng 100 < cfg.churn_pct then begin
           let tgt =
             if ncells = 1 then 0
             else (c.Hive.Types.cell_id + 1 + Sim.Prng.int rng (ncells - 1))
                  mod ncells
           in
           (* a file homed on the churn target, so its reads stay local *)
           let k = Sim.Prng.int rng cfg.nfiles in
           let rank = (k - (k mod ncells) + tgt) mod cfg.nfiles in
           st.churn_sent <- st.churn_sent + 1;
           spawn_traffic
             (Printf.sprintf "srv.churn.c%d.%d" c.Hive.Types.cell_id i)
             (fun () -> do_churn st cfg sys c ~tgt ~rank ~arrival)
         end
         else begin
           let rank = Sim.Prng.zipf_draw rng zipfd in
           let alt =
             if ncells > 1 && Sim.Prng.int rng 100 < remote_pct then
               1 + Sim.Prng.int rng (ncells - 1)
             else 0
           in
           spawn_traffic
             (Printf.sprintf "srv.req.c%d.%d" c.Hive.Types.cell_id i)
             (fun () -> do_read st cfg sys c ~rank ~alt ~arrival)
         end
       end);
      loop (i + 1)
    end
  in
  loop 0

(* ---------- phase classification and stats ---------- *)

let phase_of st arrival =
  match st.fault_seen with
  | None -> "before"
  | Some tf ->
    if Int64.compare arrival tf < 0 then "before"
    else (
      match st.recovered_at with
      | Some tr when Int64.compare arrival tr >= 0 -> "after"
      | _ -> "during")

let finalize st (sys : Hive.Types.system) =
  List.iter
    (fun r ->
      let key = r.r_klass ^ "|" ^ phase_of st r.r_arrival in
      Sim.Stats.hist_add
        (Hive.Types.hist_for sys.Hive.Types.op_ns key)
        r.r_latency)
    st.recs

let stats_of st =
  let count klass = List.length (List.filter (fun r -> r.r_klass = klass) st.recs) in
  let fail_fast_max =
    List.fold_left
      (fun acc r ->
        if r.r_klass = "server.read_failfast" then Int64.max acc r.r_latency
        else acc)
      0L st.recs
  in
  {
    arrivals = st.arrivals;
    skipped = st.skipped;
    reads_served = count "server.read";
    reads_redirected = count "server.read_redirected";
    fail_fast = count "server.read_failfast";
    deadline_exceeded = count "server.read_deadline";
    client_lost = st.client_lost;
    shed_legs = st.shed_legs;
    churn_sent = st.churn_sent;
    churn_ok = st.churn_ok;
    fault_at_ns = st.fault_seen;
    recovered_at_ns = st.recovered_at;
    fail_fast_max_ns = fail_fast_max;
    errors = st.errors;
  }

(* ---------- driver ---------- *)

let run ?(cfg = default) (sys : Hive.Types.system) =
  (* At rate 0 the mean arrival gap is infinite and no frontend would
     ever reach the end of the traffic window. *)
  if not (cfg.rate_rps > 0.) then
    invalid_arg "Workloads.Server.run: rate_rps must be positive";
  let eng = sys.Hive.Types.eng in
  let t0 = Sim.Engine.now eng in
  let paths = setup cfg sys in
  let st =
    {
      recs = [];
      outstanding = 0;
      frontends = 0;
      arrivals = 0;
      skipped = 0;
      shed_legs = 0;
      churn_sent = 0;
      churn_ok = 0;
      client_lost = 0;
      errors = 0;
      fault_seen = None;
      recovered_at = None;
      t_end = Int64.add t0 (ms_ns cfg.duration_ms);
      paths;
    }
  in
  (match cfg.fault with
  | None -> ()
  | Some f ->
    ignore
      (Sim.Engine.spawn ~name:"srv.inject" eng (fun () ->
           try
             Sim.Engine.delay (ms_ns f.at_ms);
             let victim = sys.Hive.Types.cells.(f.kill_cell) in
             if victim.Hive.Types.cstatus = Hive.Types.Cell_up then begin
               st.fault_seen <- Some (Sim.Engine.now eng);
               Hive.System.inject_node_failure sys victim.Hive.Types.boss_node
             end
           with
           | Sim.Engine.Killed as k -> raise k
           | _ -> st.errors <- st.errors + 1));
    (* Recovery monitor: records the first instant the victim is back to
       Cell_up, bounding the "during" phase. 1 ms polling is virtual
       time — deterministic and free of wall-clock. *)
    ignore
      (Sim.Engine.spawn ~name:"srv.monitor" eng (fun () ->
           try
             let victim = sys.Hive.Types.cells.(f.kill_cell) in
             let rec watch () =
               if Int64.compare (Sim.Engine.now eng) st.t_end >= 0 then ()
               else
                 match st.fault_seen with
                 | Some _
                   when victim.Hive.Types.cstatus = Hive.Types.Cell_up ->
                   st.recovered_at <- Some (Sim.Engine.now eng)
                 | _ ->
                   Sim.Engine.delay 1_000_000L;
                   watch ()
             in
             watch ()
           with
           | Sim.Engine.Killed as k -> raise k
           | _ -> ())));
  let zipfd = Sim.Prng.zipf ~n:cfg.nfiles ~s:cfg.zipf_s in
  Array.iter
    (fun (c : Hive.Types.cell) ->
      st.frontends <- st.frontends + 1;
      ignore
        (Sim.Engine.spawn
           ~name:(Printf.sprintf "srv.fe%d" c.Hive.Types.cell_id)
           eng
           (fun () ->
             Fun.protect
               ~finally:(fun () -> st.frontends <- st.frontends - 1)
               (fun () ->
                 try frontend st cfg sys zipfd c with
                 | Sim.Engine.Killed as k -> raise k
                 | _ -> st.errors <- st.errors + 1))))
    sys.Hive.Types.cells;
  let deadline = Int64.add st.t_end 60_000_000_000L in
  let done_ =
    Hive.System.run_until sys ~deadline (fun () ->
        Int64.compare (Sim.Engine.now eng) st.t_end >= 0
        && st.frontends = 0 && st.outstanding = 0)
  in
  finalize st sys;
  let s = stats_of st in
  ( {
      Workload.name = "server";
      elapsed_ns = Int64.sub (Sim.Engine.now eng) t0;
      completed = done_ && s.errors = 0;
    },
    s )

let print_stats (s : stats) =
  Printf.printf
    "traffic: %d arrivals (%d skipped), %d served + %d redirected, %d \
     fail-fast (max %.1f ms), %d deadline-exceeded, %d client-lost, %d \
     shed legs, churn %d/%d ok\n"
    s.arrivals s.skipped s.reads_served s.reads_redirected s.fail_fast
    (Int64.to_float s.fail_fast_max_ns /. 1e6)
    s.deadline_exceeded s.client_lost s.shed_legs s.churn_ok s.churn_sent;
  (match (s.fault_at_ns, s.recovered_at_ns) with
  | Some tf, Some tr ->
    Printf.printf "traffic: fault at %.1f ms, victim back up at %.1f ms\n"
      (Int64.to_float tf /. 1e6) (Int64.to_float tr /. 1e6)
  | Some tf, None ->
    Printf.printf "traffic: fault at %.1f ms, victim not back by end\n"
      (Int64.to_float tf /. 1e6)
  | None, _ -> ());
  if s.errors > 0 then
    Printf.printf "traffic: %d unexpected traffic-thread errors\n" s.errors
