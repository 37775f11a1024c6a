(* Shared plumbing for the sweep scenarios. *)

let boot ?(mcfg = Flash.Config.default) ?params ?(wax = false) ~ncells () =
  let eng = Sim.Engine.create () in
  let sys = Hive.System.boot ~mcfg ?params ~ncells ~wax eng in
  (eng, sys)

let in_thread eng body =
  let out = ref None in
  ignore (Sim.Engine.spawn eng ~name:"bench" (fun () -> out := Some (body ())));
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 60_000_000_000L) eng;
  match !out with
  | Some v -> v
  | None -> failwith "Harness.in_thread: bench thread did not finish"

let noop_op = Hive.Rpc.Op.declare "bench.noop"

let noop_queued_op = Hive.Rpc.Op.declare "bench.noop_queued"

let () =
  Hive.Rpc.serve noop_op (fun _sys _cell ~src:_ _arg ->
      Hive.Types.Immediate (Ok Hive.Types.P_unit))

let () =
  Hive.Rpc.serve noop_queued_op (fun _sys _cell ~src:_ _arg ->
      Hive.Types.Queued (fun () -> Ok Hive.Types.P_unit))

let avg_rpc_us eng sys ~op ~arg_bytes ~n =
  let c0 = sys.Hive.Types.cells.(0) in
  let total =
    in_thread eng (fun () ->
        let t0 = Sim.Engine.time () in
        for _ = 1 to n do
          match
            Hive.Rpc.call sys ~from:c0 ~target:1 ~op ~arg_bytes ~reply_bytes:0
              Hive.Types.P_unit
          with
          | Ok _ -> ()
          | Error _ -> failwith "bench rpc failed"
        done;
        Int64.sub (Sim.Engine.time ()) t0)
  in
  Int64.to_float total /. float_of_int n /. 1e3

(* Build a file homed on cell 0 and warm its cache there. *)
let make_warm_file sys ~npages =
  let psize = Flash.Config.page_size in
  let path = "/tmp/bench.dat" in
  let home = sys.Hive.Types.cells.(0) in
  let p =
    Hive.Process.spawn sys home ~name:"warm" (fun sys p ->
        let fd =
          Hive.Syscall.creat sys p
            ~content:
              (Workloads.Workload.synth_content ~tag:path
                 ~bytes:(npages * psize))
            path
        in
        ignore (Hive.Syscall.read sys p ~fd ~len:(npages * psize));
        Hive.Syscall.close sys p ~fd)
  in
  ignore
    (Hive.System.run_until_processes_done sys ~deadline:400_000_000_000L [ p ]);
  path

(* Map [npages] of [path] into a fresh process on [cell] and touch each
   page once; returns the per-touch simulated latency. *)
let touch_pass sys ~cell ~path ~npages ~write =
  let acc = Sim.Stats.summary ~keep_samples:true () in
  let p =
    Hive.Process.spawn sys sys.Hive.Types.cells.(cell) ~name:"pass"
      (fun sys p ->
        let fd = Hive.Syscall.openf sys p ~writable:write path in
        let r = Hive.Syscall.mmap_file sys p ~fd ~npages ~writable:write in
        for k = 0 to npages - 1 do
          let t0 = Sim.Engine.time () in
          Hive.Syscall.touch sys p ~vpage:(r.Hive.Types.start_page + k) ~write;
          Sim.Stats.add_ns acc (Int64.sub (Sim.Engine.time ()) t0)
        done)
  in
  let now = Sim.Engine.now sys.Hive.Types.eng in
  ignore
    (Hive.System.run_until_processes_done sys
       ~deadline:(Int64.add now 400_000_000_000L)
       [ p ]);
  acc
