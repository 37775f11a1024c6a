exception Halted of int

type t = {
  id : int;
  mutex : Sim.Mutex.t;
  mutable halted : bool;
  mutable stolen_ns : int64; (* cumulative interrupt time on this CPU *)
}

let create id =
  {
    id;
    mutex = Sim.Mutex.create ();
    halted = false;
    stolen_ns = 0L;
  }

let halt t = t.halted <- true

let restore t = t.halted <- false

let check t = if t.halted then raise (Halted t.id)

(* Interrupt handlers "steal" processor time: whoever currently runs a
   burst sees its burst stretched by the stolen amount. *)
let steal t ns =
  check t;
  t.stolen_ns <- Int64.add t.stolen_ns ns;
  Sim.Engine.delay ns

(* Occupy the CPU for [ns] of computation, queueing FIFO behind other
   occupants and stretching for any interrupt time stolen meanwhile. *)
let use eng t ns =
  check t;
  Sim.Mutex.with_lock eng t.mutex (fun () ->
      check t;
      let stolen0 = ref t.stolen_ns in
      let remaining = ref ns in
      while Int64.compare !remaining 0L > 0 do
        Sim.Engine.delay !remaining;
        check t;
        let extra = Int64.sub t.stolen_ns !stolen0 in
        stolen0 := t.stolen_ns;
        remaining := extra
      done)
