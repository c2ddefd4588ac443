module Prng = Tm_sim.Prng

type profile = Read_mostly | Write_heavy | Long_txn | Mixed

let profiles = [ Read_mostly; Write_heavy; Long_txn; Mixed ]

let profile_name = function
  | Read_mostly -> "read-mostly"
  | Write_heavy -> "write-heavy"
  | Long_txn -> "long-txn"
  | Mixed -> "mixed"

let profile_of_string s =
  match
    List.find_opt (fun p -> String.equal (profile_name p) s) profiles
  with
  | Some p -> Ok p
  | None ->
      Error
        (Fmt.str "unknown profile %S (expected %s)" s
           (String.concat ", " (List.map profile_name profiles)))

let describe = function
  | Read_mostly -> "90% get / 7% put / 3% transfer txn on the hot set"
  | Write_heavy -> "25% get / 50% put / 15% cas / 10% transfer txn"
  | Long_txn -> "30% get / 10% put / 60% long (20-op) transactions"
  | Mixed -> "45% get / 25% put / 10% cas / 10% txn / 10% long txn"

type request = Single of Store.op | Txn of Store.op list

let kinds = [ "cas"; "get"; "put"; "txn" ]

(* Positions in [kinds]. *)
let k_cas = 0
let k_get = 1
let k_put = 2
let k_txn = 3

let kind_index = function
  | Single (Store.O_cas _) -> k_cas
  | Single (Store.O_get _) -> k_get
  | Single (Store.O_put _) | Single (Store.O_add _) -> k_put
  | Txn _ -> k_txn

let kind req = List.nth kinds (kind_index req)

let mutates = function
  | Single op -> Store.op_mutates op
  | Txn ops -> List.exists Store.op_mutates ops

(* Admission prices, in queue units. *)
let get_cost = 8
let single_cost = 14
let txn_cost length = 8 + (6 * length)

let cost = function
  | Single (Store.O_get _) -> get_cost
  | Single _ -> single_cost
  | Txn ops -> txn_cost (List.length ops)

type t = {
  w_profile : profile;
  w_seed : int;
  w_keys : int;
  w_kv_n : int;  (** even keys: the Zipf-targeted kv plane *)
  w_cnt_n : int;  (** odd keys: the conserving counter plane *)
  w_zipf : Zipf.t;
}

let create ~profile ~seed ~keys () =
  if keys < 4 then invalid_arg "Workload.create: keys < 4";
  let kv_n = (keys + 1) / 2 in
  {
    w_profile = profile;
    w_seed = seed;
    w_keys = keys;
    w_kv_n = kv_n;
    w_cnt_n = keys / 2;
    w_zipf = Zipf.create ~s:1.07 ~n:kv_n ();
  }

let profile t = t.w_profile
let seed t = t.w_seed
let keys t = t.w_keys
let zipf t = t.w_zipf

(* Zipf rank r on the kv plane is key 2r; counter slot u is key 2u+1. *)
let kv_key t g =
  let r = Zipf.sample t.w_zipf g in
  assert (r < t.w_kv_n);
  2 * r

let cnt_key u = (2 * u) + 1

(* The draw order is the one the pinned request streams were recorded
   with, when requests were built as constructors and ocamlopt
   evaluated their arguments right to left: a put draws its value
   before its key, a cas desired, expected, then key. *)
let get t b g =
  Store.start b ~length:1 ~kind:k_get ~cost:get_cost;
  Store.set_get b 0 (kv_key t g)

let put t b g =
  Store.start b ~length:1 ~kind:k_put ~cost:single_cost;
  let v = 1 + Prng.int g 1000 in
  Store.set_put b 0 (kv_key t g) v

let cas t b g =
  Store.start b ~length:1 ~kind:k_cas ~cost:single_cost;
  let desired = 1 + Prng.int g 1000 in
  let expected = Prng.int g 8 in
  Store.set_cas b 0 (kv_key t g) ~expected ~desired

let txn b ~length = Store.start b ~length ~kind:k_txn ~cost:(txn_cost length)

(* One conserving transfer into ops [i] and [i+1]: two distinct counter
   keys, deltas +-d. *)
let transfer t b g i =
  let a = Prng.int g t.w_cnt_n in
  let c = (a + 1 + Prng.int g (t.w_cnt_n - 1)) mod t.w_cnt_n in
  let d = 1 + Prng.int g 8 in
  Store.set_add b i (cnt_key a) (-d);
  Store.set_add b (i + 1) (cnt_key c) d

let short_txn t b g =
  txn b ~length:2;
  transfer t b g 0

(* Four reads, then eight transfers in reverse draw order, as the
   pinned streams hold them. *)
let long_txn t b g =
  txn b ~length:20;
  for i = 0 to 3 do
    Store.set_get b i (kv_key t g)
  done;
  for j = 0 to 7 do
    transfer t b g (4 + (2 * (7 - j)))
  done

let fill t b ~client ~index =
  let g = Store.gen b in
  Prng.reseed g
    (t.w_seed * 0x1000003
    lxor (client * 0x9E3779B1)
    lxor ((index + 1) * 0x85EBCA6B));
  let p = Prng.int g 100 in
  match t.w_profile with
  | Read_mostly ->
      if p < 90 then get t b g
      else if p < 97 then put t b g
      else short_txn t b g
  | Write_heavy ->
      if p < 25 then get t b g
      else if p < 75 then put t b g
      else if p < 90 then cas t b g
      else short_txn t b g
  | Long_txn ->
      if p < 30 then get t b g
      else if p < 40 then put t b g
      else long_txn t b g
  | Mixed ->
      if p < 45 then get t b g
      else if p < 70 then put t b g
      else if p < 80 then cas t b g
      else if p < 90 then short_txn t b g
      else long_txn t b g

let single_put b =
  Store.kind b <> k_txn
  && match Store.op_tag b 0 with Store.T_put -> true | _ -> false

let view b =
  if Store.kind b = k_txn then Txn (List.init (Store.length b) (Store.op b))
  else Single (Store.op b 0)

let scratch = Domain.DLS.new_key Store.buffer

let request t ~client ~index =
  let b = Domain.DLS.get scratch in
  fill t b ~client ~index;
  view b
