(* Common workload infrastructure: deterministic input generation, output
   verification against reference contents, and timing.

   Workload outputs are deterministic functions of their inputs so that
   the fault-injection experiments can detect corruption by comparing
   output files against reference copies, exactly as in Section 7.4. *)

type result = {
  name : string;
  elapsed_ns : int64;
  completed : bool;
}

let ns_to_s ns = Int64.to_float ns /. 1e9

(* Run [driver] as process [name] on cell 0 until it exits or 600 s of
   simulated time pass; the run completed if the driver exited with 0. *)
let run_driver (sys : Hive.Types.system) ~name driver =
  let t0 = Sim.Engine.now sys.Hive.Types.eng in
  let p = Hive.Process.spawn sys sys.Hive.Types.cells.(0) ~name driver in
  let completed =
    Hive.System.run_until_processes_done sys ~deadline:600_000_000_000L [ p ]
  in
  ( {
      name;
      elapsed_ns = Int64.sub (Sim.Engine.now sys.Hive.Types.eng) t0;
      completed = completed && p.Hive.Types.exit_code = Some 0;
    },
    p )

(* Deterministic pseudo-content for a named input file. The result is a
   pure function of [(tag, bytes)] and identical across campaigns, so it
   is memoized — fuzz drivers re-synthesize the same input tree for
   every seed, and the per-byte generator showed up as one of the
   hottest leaves in campaign profiles. The cache is domain-local:
   parallel fuzz workers each build their own, sharing nothing. *)
let synth_cache_key :
    (string * int, Bytes.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let synth_content ~tag ~bytes =
  let cache = Domain.DLS.get synth_cache_key in
  match Hashtbl.find_opt cache (tag, bytes) with
  | Some b -> Bytes.copy b
  | None ->
    let b = Bytes.create bytes in
    let h = ref (Hashtbl.hash tag land 0xffff) in
    for i = 0 to bytes - 1 do
      h := ((!h * 1103515245) + 12345) land 0x3fffffff;
      Bytes.set b i (Char.chr (!h land 0xff))
    done;
    Hashtbl.replace cache (tag, bytes) (Bytes.copy b);
    b

(* The deterministic "compilation" of a source: what a correct run must
   produce. Any wild write to the data en route changes the output. *)
let derive_output ~input ~bytes =
  let b = Bytes.create bytes in
  let n = Bytes.length input in
  let acc = ref 17 in
  (* [j] walks the input cyclically: [i mod n] without a division per
     byte. *)
  let j = ref 0 in
  for i = 0 to bytes - 1 do
    let src =
      if n = 0 then 0
      else begin
        let c = Char.code (Bytes.get input !j) in
        incr j;
        if !j = n then j := 0;
        c
      end
    in
    acc := (!acc + (src * 31) + i) land 0xff;
    Bytes.set b i (Char.chr !acc)
  done;
  b

(* Read a file's current stable content directly (test oracle use only). *)
let stable_content (sys : Hive.Types.system) path =
  let home = Hive.Fs.home_of_path sys path in
  match Hive.Fs.find_local sys.Hive.Types.cells.(home) path with
  | Some f ->
    (* Unsynced growth may exceed the stable contents. *)
    Some
      (Bytes.sub f.Hive.Types.disk_content 0
         (min f.Hive.Types.size (Bytes.length f.Hive.Types.disk_content)))
  | None -> None

(* Read a file's logical content (page cache over disk), as a fresh
   process would see it. *)
let logical_content (sys : Hive.Types.system) path =
  let home_id = Hive.Fs.home_of_path sys path in
  let home = sys.Hive.Types.cells.(home_id) in
  if not (Hive.Types.cell_alive home) then None
  else
    match Hive.Fs.find_local home path with
    | None -> None
    | Some f ->
      let psize = Flash.Config.page_size in
      let out = Bytes.create f.Hive.Types.size in
      let npages = (f.Hive.Types.size + psize - 1) / psize in
      for pg = 0 to npages - 1 do
        let off = pg * psize in
        let len = min psize (f.Hive.Types.size - off) in
        (match Hashtbl.find_opt f.Hive.Types.cached_pages pg with
        | Some pf ->
          let addr =
            Flash.Addr.addr_of_pfn pf.Hive.Types.pfn
          in
          Bytes.blit
            (Flash.Memory.peek
               (Flash.Machine.memory sys.Hive.Types.machine)
               addr len)
            0 out off len
        | None ->
          if Bytes.length f.Hive.Types.disk_content >= off + len then
            Bytes.blit f.Hive.Types.disk_content off out off len)
      done;
      Some out

type verify_outcome = Match | Data_loss | Corrupt | Missing

(* Compare an output file against its reference.

   [Data_loss] (stale-but-stable data after a preemptive discard, visible
   through a bumped generation) is an allowed consequence of a cell
   failure; [Corrupt] (content that matches neither the reference nor any
   stable prefix) means the wild-write defense failed. *)
let verify_output (sys : Hive.Types.system) ~path ~reference =
  let home_id = Hive.Fs.home_of_path sys path in
  let home = sys.Hive.Types.cells.(home_id) in
  match Hive.Fs.find_local home path with
  | None -> Missing
  | Some f ->
    let content =
      match logical_content sys path with Some c -> c | None -> Bytes.empty
    in
    if Bytes.equal content reference then Match
    else if f.Hive.Types.generation > 0 then Data_loss
    else if
      (* An incomplete write by a killed process leaves a prefix of the
         reference plus zero padding: loss, not corruption. *)
      Bytes.length content <= Bytes.length reference
      && Bytes.for_all (fun c -> c = '\000') content
    then Data_loss
    else begin
      let n = min (Bytes.length content) (Bytes.length reference) in
      let rec prefix_ok i =
        i >= n
        || (Bytes.get content i = Bytes.get reference i
            || Bytes.get content i = '\000')
           && prefix_ok (i + 1)
      in
      if prefix_ok 0 then Data_loss else Corrupt
    end

let verify_outcome_to_string = function
  | Match -> "match"
  | Data_loss -> "data-loss"
  | Corrupt -> "CORRUPT"
  | Missing -> "missing"
