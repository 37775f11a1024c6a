type 'a waiter = { slot : 'a option ref; thread : Engine.thread }

type 'a t = { mutable value : 'a option; mutable waiters : 'a waiter list }

let create () = { value = None; waiters = [] }

let is_filled v = v.value <> None

let peek v = v.value

let fill eng v x =
  match v.value with
  | Some _ -> invalid_arg "Ivar.fill: already filled"
  | None ->
    v.value <- Some x;
    let ws = List.rev v.waiters in
    v.waiters <- [];
    List.iter
      (fun w ->
        if Engine.try_resume eng w.thread then w.slot := Some x)
      ws

let read ?timeout eng v =
  match v.value with
  | Some x -> Some x
  | None ->
    let slot = ref None in
    Engine.suspend (fun thr ->
        v.waiters <- { slot; thread = thr } :: v.waiters;
        match timeout with
        | None -> ()
        | Some d -> Engine.wake_after eng thr d);
    (match !slot with
    | Some _ as r -> r
    | None ->
      (* Timed out: drop our waiter record so a later fill skips it. *)
      let me = Engine.current eng in
      v.waiters <- List.filter (fun w -> w.thread != me) v.waiters;
      None)

let read_exn eng v =
  match read eng v with
  | Some x -> x
  | None -> assert false
