type t = {
  cfg : Config.t;
  mutable last_block : int;
  busy : Sim.Mutex.t;
}

let block_size = 4096

let create cfg = { cfg; last_block = -100; busy = Sim.Mutex.create () }

(* Positioning cost: sequential accesses pay a track-transfer cost only;
   anything else pays the average access (seek + rotation) of an
   HP-97560-class drive. Transfers add bandwidth-limited time plus DMA
   setup, as SimOS modelled DMA latency and controller occupancy. *)
let access_ns t ~block ~bytes =
  let cfg = t.cfg in
  let positioning =
    if block = t.last_block + 1 then cfg.Config.disk_track_ns
    else cfg.Config.disk_avg_access_ns
  in
  let transfer =
    Int64.of_float (float_of_int bytes /. cfg.Config.disk_bytes_per_ns)
  in
  Int64.add (Int64.add positioning transfer) cfg.Config.dma_setup_ns

let io eng t ~block ~bytes =
  Sim.Mutex.with_lock eng t.busy (fun () ->
      let ns = access_ns t ~block ~bytes in
      t.last_block <- block + ((bytes + block_size - 1) / block_size) - 1;
      Sim.Engine.delay ns)

let read eng t ~block ~bytes = io eng t ~block ~bytes

let write eng t ~block ~bytes = io eng t ~block ~bytes
