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

let kind_index = function
  | Single (Store.O_cas _) -> 0
  | Single (Store.O_get _) -> 1
  | Single (Store.O_put _) | Single (Store.O_add _) -> 2
  | Txn _ -> 3

let kind req = List.nth kinds (kind_index req)

let mutates = function
  | Single op -> Store.op_mutates op
  | Txn ops -> List.exists Store.op_mutates ops

let cost = function
  | Single (Store.O_get _) -> 8
  | Single _ -> 14
  | Txn ops -> 8 + (6 * List.length ops)

type t = {
  w_profile : profile;
  w_seed : int;
  w_keys : int;
  w_kv_n : int;  (** even keys: the Zipf-targeted kv plane *)
  w_cnt_n : int;  (** odd keys: the conserving counter plane *)
  w_zipf : Zipf.t;
}

let create ?(hot_s = 1.07) ~profile ~seed ~keys () =
  if keys < 4 then invalid_arg "Workload.create: keys < 4";
  let kv_n = (keys + 1) / 2 in
  {
    w_profile = profile;
    w_seed = seed;
    w_keys = keys;
    w_kv_n = kv_n;
    w_cnt_n = keys / 2;
    w_zipf = Zipf.create ~s:hot_s ~n:kv_n ();
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

let get t g = Single (Store.O_get (kv_key t g))
let put t g = Single (Store.O_put (kv_key t g, 1 + Prng.int g 1000))

let cas t g =
  Single (Store.O_cas (kv_key t g, Prng.int g 8, 1 + Prng.int g 1000))

(* One conserving transfer: two distinct counter keys, deltas +-d. *)
let transfer t g acc =
  let a = Prng.int g t.w_cnt_n in
  let b = (a + 1 + Prng.int g (t.w_cnt_n - 1)) mod t.w_cnt_n in
  let d = 1 + Prng.int g 8 in
  Store.O_add (cnt_key a, -d) :: Store.O_add (cnt_key b, d) :: acc

let short_txn t g = Txn (transfer t g [])

let long_txn t g =
  let reads = List.init 4 (fun _ -> Store.O_get (kv_key t g)) in
  let pairs = ref [] in
  for _ = 1 to 8 do
    pairs := transfer t g !pairs
  done;
  Txn (reads @ !pairs)

let request t ~client ~index =
  let g =
    Prng.create
      (t.w_seed * 0x1000003
      lxor (client * 0x9E3779B1)
      lxor ((index + 1) * 0x85EBCA6B))
  in
  let p = Prng.int g 100 in
  match t.w_profile with
  | Read_mostly ->
      if p < 90 then get t g
      else if p < 97 then put t g
      else short_txn t g
  | Write_heavy ->
      if p < 25 then get t g
      else if p < 75 then put t g
      else if p < 90 then cas t g
      else short_txn t g
  | Long_txn ->
      if p < 30 then get t g else if p < 40 then put t g else long_txn t g
  | Mixed ->
      if p < 45 then get t g
      else if p < 70 then put t g
      else if p < 80 then cas t g
      else if p < 90 then short_txn t g
      else long_txn t g
