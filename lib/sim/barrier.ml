type outcome = Released | Aborted

type t = {
  mutable parties : int;
  mutable arrived : int;
  mutable generation : int;
  mutable aborted : bool;
  mutable waiters : Engine.thread list;
}

let create parties =
  if parties <= 0 then invalid_arg "Barrier.create";
  { parties; arrived = 0; generation = 0; aborted = false; waiters = [] }

let parties b = b.parties

let aborted b = b.aborted

let release eng b =
  b.arrived <- 0;
  b.generation <- b.generation + 1;
  let ws = b.waiters in
  b.waiters <- [];
  List.iter (fun w -> ignore (Engine.try_resume eng w)) ws

let await_abortable eng b =
  if b.aborted then Aborted
  else begin
    b.arrived <- b.arrived + 1;
    if b.arrived >= b.parties then begin
      release eng b;
      Released
    end
    else begin
      let gen = b.generation in
      Engine.suspend (fun thr ->
          b.waiters <- b.waiters @ [ thr ]);
      (* A killed waiter can be resumed spuriously; re-block until the
         generation actually advances or the barrier is torn down. *)
      while b.generation = gen && not b.aborted do
        Engine.suspend (fun thr ->
            b.waiters <- b.waiters @ [ thr ])
      done;
      if b.aborted then Aborted else Released
    end
  end

let await eng b = ignore (await_abortable eng b)

let abort eng b =
  if not b.aborted then begin
    b.aborted <- true;
    b.arrived <- 0;
    let ws = b.waiters in
    b.waiters <- [];
    List.iter (fun w -> ignore (Engine.try_resume eng w)) ws
  end

let remove_party eng b =
  if b.parties <= 1 then
    (* The last party leaving tears the barrier down: nobody could ever
       release the remaining waiters. *)
    abort eng b
  else begin
    b.parties <- b.parties - 1;
    if (not b.aborted) && b.arrived >= b.parties then release eng b
  end
