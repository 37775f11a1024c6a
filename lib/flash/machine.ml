type node = {
  id : int;
  cpu : Cpu.t;
  disk : Disk.t;
  mutable alive : bool;
}

type t = {
  cfg : Config.t;
  eng : Sim.Engine.t;
  memory : Memory.t;
  sips : Sips.t;
  nodes : node array;
  mutable failure_listeners : (int -> unit) list;
}

let create eng cfg =
  Config.validate cfg;
  {
    cfg;
    eng;
    memory = Memory.create cfg;
    sips = Sips.create eng ~nodes:cfg.Config.nodes;
    nodes =
      Array.init cfg.Config.nodes (fun i ->
          { id = i; cpu = Cpu.create i; disk = Disk.create (); alive = true });
    failure_listeners = [];
  }

let memory t = t.memory

let firewall t = Memory.firewall t.memory

let sips t = t.sips

let cpu t i = t.nodes.(i).cpu

let disk t i = t.nodes.(i).disk

let node_alive t i = t.nodes.(i).alive

let on_node_failure t f = t.failure_listeners <- f :: t.failure_listeners

(* Fail-stop a node: the processor halts, the local memory becomes
   inaccessible, SIPS messages to it are dropped. The unit of hardware
   failure in a CC-NUMA machine (Figure 2.1 of the paper). *)
let fail_node t i =
  let n = t.nodes.(i) in
  if n.alive then begin
    n.alive <- false;
    Cpu.halt n.cpu;
    Memory.fail_node t.memory i;
    Sips.fail_node t.sips i;
    List.iter (fun f -> f i) t.failure_listeners
  end

(* CXL-style processor failure: the CPU halts and SIPS goes silent, but
   the node's memory controller keeps answering — remote reads of its
   pages still succeed. Survivors see a peer whose clock word is readable
   but frozen and whose messages never arrive; its clean exported pages
   can be salvaged instead of discarded. *)
let fail_node_cpu t i =
  let n = t.nodes.(i) in
  if n.alive then begin
    n.alive <- false;
    Cpu.halt n.cpu;
    Sips.fail_node t.sips i;
    List.iter (fun f -> f i) t.failure_listeners
  end

(* Repair and reintegrate a node (memory zeroed). *)
let restore_node t i =
  let n = t.nodes.(i) in
  n.alive <- true;
  Cpu.restore n.cpu;
  Memory.restore_node t.memory i;
  Sips.restore_node t.sips i

(* Memory cutoff, used by a cell's panic routine: the node stays alive but
   refuses remote memory accesses, preventing the spread of potentially
   corrupt data. *)
let cutoff_node t i = Memory.cutoff_node t.memory i
