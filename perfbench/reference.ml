(* A fixed reference computation that measures how fast the host runs right
   now, independently of the program under test.

   It is a small discrete-event loop written here, not with the
   repository's libraries: a binary heap of timed events, a hash table of
   short lists, and reads and writes scattered over a 32 MB buffer, so it
   leans on the allocator, the collector and the memory system much as the
   simulator does. Its work is the same on every call, so its wall time
   changes only with the host: CPU contention, cache and memory-bandwidth
   interference from neighbours. A change to the repository cannot move it. *)

type ev = { t : int; seq : int; key : int }

let heap_size = 4096

let keys = 65536

let events = 200_000

let buffer = Bytes.make (32 lsl 20) '\000'

let run () =
  let heap = Array.make heap_size { t = 0; seq = 0; key = 0 } in
  let n = ref 0 in
  let less a b = a.t < b.t || (a.t = b.t && a.seq < b.seq) in
  let push e =
    let i = ref !n in
    incr n;
    heap.(!i) <- e;
    while !i > 0 && less heap.(!i) heap.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let x = heap.(p) in
      heap.(p) <- heap.(!i);
      heap.(!i) <- x;
      i := p
    done
  in
  let pop () =
    let top = heap.(0) in
    decr n;
    heap.(0) <- heap.(!n);
    let i = ref 0 and fin = ref false in
    while not !fin do
      let l = (2 * !i) + 1 in
      let m = if l < !n && less heap.(l) heap.(!i) then l else !i in
      let m = if l + 1 < !n && less heap.(l + 1) heap.(m) then l + 1 else m in
      if m = !i then fin := true
      else begin
        let x = heap.(m) in
        heap.(m) <- heap.(!i);
        heap.(!i) <- x;
        i := m
      end
    done;
    top
  in
  (* xorshift: the same stream on every call *)
  let s = ref 0x2545F4914F6CDD1D in
  let rand bound =
    s := !s lxor (!s lsl 13);
    s := !s lxor (!s lsr 7);
    s := !s lxor (!s lsl 17);
    (!s land max_int) mod bound
  in
  let table = Hashtbl.create keys in
  for i = 0 to heap_size - 2 do
    push { t = rand 1000; seq = i; key = rand keys }
  done;
  let sum = ref 0 in
  let len = Bytes.length buffer - 8 in
  for seq = heap_size to heap_size + events - 1 do
    let e = pop () in
    let prev = Option.value ~default:[] (Hashtbl.find_opt table e.key) in
    Hashtbl.replace table e.key (if List.length prev > 6 then [ e.t ] else e.t :: prev);
    let off = rand len in
    sum := !sum + Char.code (Bytes.unsafe_get buffer off);
    Bytes.unsafe_set buffer (rand len) (Char.unsafe_chr (e.t land 0xff));
    push { t = e.t + 1 + rand 1000; seq; key = rand keys }
  done;
  !sum + Hashtbl.length table

(* About what [run] takes on a quiet host of the kind the benchmark was
   tuned on (2 vCPUs of a shared x86-64 server): the speed to which the
   end-to-end host times are scaled. *)
let nominal_s = 0.2
