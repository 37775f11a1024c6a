(* A set of processor numbers, the value a firewall permission vector
   holds. On the real FLASH this is a bit vector in the coherence
   controller; machines past 64 processors widen it to multiple words
   (Section 4.2 notes the MAGIC firewall storage options scale with
   machine size). Represented as a normalized array of 63-bit words so
   structural equality and polymorphic hashing work and machines of
   hundreds of processors stay representable. *)

type t = int array (* word i holds procs [63i, 63i+62]; no trailing zeros *)

let bits_per_word = 63

let empty : t = [||]

let is_empty (s : t) = Array.length s = 0

(* Drop trailing zero words so equal sets are structurally equal. *)
let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let singleton p =
  if p < 0 then invalid_arg "Procset.singleton: negative processor";
  let w = p / bits_per_word in
  let a = Array.make (w + 1) 0 in
  a.(w) <- 1 lsl (p mod bits_per_word);
  a

let mem (s : t) p =
  let w = p / bits_per_word in
  p >= 0
  && w < Array.length s
  && s.(w) land (1 lsl (p mod bits_per_word)) <> 0

let add (s : t) p =
  if p < 0 then invalid_arg "Procset.add: negative processor";
  let w = p / bits_per_word in
  let n = max (Array.length s) (w + 1) in
  let a = Array.make n 0 in
  Array.blit s 0 a 0 (Array.length s);
  a.(w) <- a.(w) lor (1 lsl (p mod bits_per_word));
  a

let remove (s : t) p =
  let w = p / bits_per_word in
  if p < 0 || w >= Array.length s then s
  else begin
    let a = Array.copy s in
    a.(w) <- a.(w) land lnot (1 lsl (p mod bits_per_word));
    normalize a
  end

let of_list ps = List.fold_left add empty ps

let union (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  Array.init n (fun i ->
      (if i < la then a.(i) else 0) lor if i < lb then b.(i) else 0)

let inter (a : t) (b : t) : t =
  let n = min (Array.length a) (Array.length b) in
  normalize (Array.init n (fun i -> a.(i) land b.(i)))

let diff (a : t) (b : t) : t =
  let lb = Array.length b in
  normalize
    (Array.mapi (fun i w -> if i < lb then w land lnot b.(i) else w) a)

let intersects (a : t) (b : t) =
  let n = min (Array.length a) (Array.length b) in
  let rec go i = i < n && (a.(i) land b.(i) <> 0 || go (i + 1)) in
  go 0

let equal (a : t) (b : t) = a = b

(* Compact rendering for traces: hex words, most significant first. *)
let to_string (s : t) =
  if is_empty s then "0"
  else
    String.concat ":"
      (List.rev (Array.to_list (Array.map (Printf.sprintf "%x") s)))
