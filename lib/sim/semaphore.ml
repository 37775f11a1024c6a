type t = { mutable count : int; mutable waiters : Engine.thread list }

let create count =
  if count < 0 then invalid_arg "Semaphore.create";
  { count; waiters = [] }

let acquire _eng s =
  let rec wait () =
    if s.count > 0 then s.count <- s.count - 1
    else begin
      Engine.suspend (fun thr ->
          s.waiters <- s.waiters @ [ thr ]);
      wait ()
    end
  in
  wait ()

let release eng s =
  s.count <- s.count + 1;
  let rec wake () =
    match s.waiters with
    | [] -> ()
    | w :: rest ->
      s.waiters <- rest;
      if not (Engine.try_resume eng w) then wake ()
  in
  wake ()
