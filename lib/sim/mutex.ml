type t = {
  mutable holder : Engine.thread option;
  mutable waiters : Engine.thread list;
}

let create () = { holder = None; waiters = [] }

let lock eng m =
  let me = Engine.current eng in
  (match m.holder with
  | Some h when h == me -> invalid_arg "Mutex.lock: not reentrant"
  | _ -> ());
  let rec wait () =
    match m.holder with
    | None -> m.holder <- Some me
    | Some _ ->
      Engine.suspend (fun thr ->
          m.waiters <- m.waiters @ [ thr ]);
      wait ()
  in
  wait ()

let unlock eng m =
  (match m.holder with
  | None -> invalid_arg "Mutex.unlock: not locked"
  | Some _ -> ());
  m.holder <- None;
  (* Wake the first live waiter; it re-contends in its [wait] loop. *)
  let rec wake () =
    match m.waiters with
    | [] -> ()
    | w :: rest ->
      m.waiters <- rest;
      if not (Engine.try_resume eng w) then wake ()
  in
  wake ()

let with_lock eng m f =
  lock eng m;
  Fun.protect ~finally:(fun () -> unlock eng m) f
