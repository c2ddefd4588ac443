module Stm = Tm_stm.Stm
module Prng = Tm_sim.Prng

type t = {
  st_stripes : int;
  st_tvars : int Stm.tvar array;  (* indexed by key *)
  st_journal : int Stm.tvar option;
}

let create ?(stripes = 64) ?(journal = false) ~keys () =
  if keys < 1 then invalid_arg "Store.create: keys < 1";
  let stripes = max 1 (min stripes keys) in
  (* Stripe by stripe, so the ids are the old directories'; joined by
     [Array.concat], which forces no minor GC as a large [Array.init] does. *)
  let dirs =
    Array.init stripes (fun s ->
        Array.init ((keys - s + stripes - 1) / stripes) (fun _ -> Stm.tvar 0))
  in
  let row i =
    Array.init (min stripes (keys - (i * stripes))) (fun s -> dirs.(s).(i))
  in
  {
    st_stripes = stripes;
    st_tvars = Array.concat (List.init ((keys + stripes - 1) / stripes) row);
    st_journal = (if journal then Some (Stm.tvar 0) else None);
  }

let keys t = Array.length t.st_tvars
let stripes t = t.st_stripes
let stripe_of t k = k mod t.st_stripes
let[@inline] slot t k = t.st_tvars.(k)

type op = O_get of int | O_put of int * int | O_add of int * int | O_cas of int * int * int
type result = R_value of int | R_unit | R_bool of bool

let op_mutates = function
  | O_get _ -> false
  | O_put _ | O_add _ | O_cas _ -> true

(* The one op semantics, on the buffer's encoding: tag (0 get, 1 put,
   2 add, 3 cas), key and two arguments.  The result is an int (the
   value read, 0, or 1/0 for a cas hit/miss), so running an op boxes
   nothing. *)
let[@inline] step t tag k x y =
  let tv = slot t k in
  match tag with
  | 0 -> Stm.read tv
  | 1 ->
      Stm.write tv x;
      0
  | 2 ->
      Stm.write tv (Stm.read tv + x);
      0
  | _ ->
      if Stm.read tv = x then begin
        Stm.write tv y;
        1
      end
      else 0

let exec_op t = function
  | O_get k -> R_value (step t 0 k 0 0)
  | O_put (k, v) ->
      ignore (step t 1 k v 0 : int);
      R_unit
  | O_add (k, d) ->
      ignore (step t 2 k d 0 : int);
      R_unit
  | O_cas (k, expected, desired) -> R_bool (step t 3 k expected desired = 1)

type tag = T_get | T_put | T_add | T_cas

type buffer = {
  mutable b_ops : int array;  (* 4 ints per op: tag, key, x, y *)
  mutable b_len : int;
  mutable b_kind : int;
  mutable b_cost : int;
  mutable b_mutates : bool;
  b_gen : Prng.t;
}

let buffer () =
  {
    b_ops = Array.make (4 * 32) 0;
    b_len = 0;
    b_kind = 0;
    b_cost = 0;
    b_mutates = false;
    b_gen = Prng.create 0;
  }

let start b ~length ~kind ~cost =
  if length < 0 then invalid_arg "Store.start: length < 0";
  if 4 * length > Array.length b.b_ops then
    b.b_ops <- Array.make (8 * length) 0;
  b.b_len <- length;
  b.b_kind <- kind;
  b.b_cost <- cost;
  b.b_mutates <- false

let[@inline] set b i tag k x y =
  if i < 0 || i >= b.b_len then invalid_arg "Store: op index out of range";
  let j = 4 * i in
  let a = b.b_ops in
  a.(j) <- tag;
  a.(j + 1) <- k;
  a.(j + 2) <- x;
  a.(j + 3) <- y;
  if tag <> 0 then b.b_mutates <- true

let set_get b i k = set b i 0 k 0 0
let set_put b i k v = set b i 1 k v 0
let set_add b i k d = set b i 2 k d 0
let set_cas b i k ~expected ~desired = set b i 3 k expected desired
let length b = b.b_len
let kind b = b.b_kind
let cost b = b.b_cost
let mutates b = b.b_mutates
let gen b = b.b_gen

let[@inline] field b i f =
  if i < 0 || i >= b.b_len then invalid_arg "Store: op index out of range";
  b.b_ops.((4 * i) + f)

let op_tag b i =
  match field b i 0 with 0 -> T_get | 1 -> T_put | 2 -> T_add | _ -> T_cas

let op_key b i = field b i 1
let op_arg b i = field b i 2

let op b i =
  let k = op_key b i and x = op_arg b i in
  match op_tag b i with
  | T_get -> O_get k
  | T_put -> O_put (k, x)
  | T_add -> O_add (k, x)
  | T_cas -> O_cas (k, x, field b i 3)

let run t b =
  let a = b.b_ops in
  for i = 0 to b.b_len - 1 do
    let j = 4 * i in
    ignore (step t a.(j) a.(j + 1) a.(j + 2) a.(j + 3) : int)
  done

let write_key t k v = Stm.write (slot t k) v

let journal_mark t n =
  match t.st_journal with
  | None -> ()
  | Some j -> Stm.write j (Stm.read j + n)

let get t k = Stm.atomically (fun () -> Stm.read (slot t k))

let spec_op m = function
  | O_get k -> R_value m.(k)
  | O_put (k, v) ->
      m.(k) <- v;
      R_unit
  | O_add (k, d) ->
      m.(k) <- m.(k) + d;
      R_unit
  | O_cas (k, expected, desired) ->
      if m.(k) = expected then begin
        m.(k) <- desired;
        R_bool true
      end
      else R_bool false

let multi t ops =
  Stm.atomically (fun () ->
      let rs = List.map (exec_op t) ops in
      if List.exists op_mutates ops then journal_mark t 1;
      rs)

(* In creation order, mostly the order in memory: key order strides.
   Outside a transaction [Stm.read] is the core's direct snapshot read:
   no transaction per key. *)
let dump t =
  let st = t.st_stripes and a = Array.make (keys t) 0 in
  for s = 0 to st - 1 do
    for i = 0 to (Array.length a - s - 1) / st do
      a.((i * st) + s) <- Stm.read t.st_tvars.((i * st) + s)
    done
  done;
  a

(* FNV-1a over native ints, one value per step (the offset basis cut
   to fit an OCaml int). *)
let hash values =
  Array.fold_left
    (fun h v -> (h lxor v) * 0x100000001b3)
    0xbf29ce484222325 values

let journal_value t =
  match t.st_journal with
  | None -> 0
  | Some j -> Stm.read j
