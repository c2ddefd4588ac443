(* The correctness checks the benchmark applies to every output it
   measures.  Each returns [Ok ()] or the reason the output is wrong;
   the self-tests feed each one a perturbed input it must reject. *)

module Server = Tm_serve.Server

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e

(* A served population: the counter plane conserved, the journal equal
   to the admitted mutators, and every generated request either admitted
   or shed. *)
let serve_outcome (o : Server.outcome) =
  let expected = Server.total_requests o.Server.s_config in
  (if o.Server.s_conserved then Ok () else fail "counter plane not conserved")
  >>= fun () ->
  (if o.Server.s_journal_ok then Ok ()
   else fail "journal differs from the admitted mutators")
  >>= fun () ->
  (if o.Server.s_admitted + o.Server.s_shed = o.Server.s_requests then Ok ()
   else
     fail "admitted %d + shed %d <> requests %d" o.Server.s_admitted
       o.Server.s_shed o.Server.s_requests)
  >>= fun () ->
  if o.Server.s_requests = expected then Ok ()
  else fail "served %d requests of %d" o.Server.s_requests expected

(* Two runs of one configuration must print the same canonical
   document. *)
let canonical_equal ~reference doc =
  if String.equal reference doc then Ok ()
  else fail "canonical serve document differs between runs of one config"

(* A store dump (index = key): the odd-keyed counter plane only ever
   receives zero-sum transfers, so it must sum to 0. *)
let conserved_dump (dump : int array) =
  let sum = ref 0 in
  Array.iteri (fun k v -> if k land 1 = 1 then sum := !sum + v) dump;
  if !sum = 0 then Ok () else fail "counter plane sums to %d, not 0" !sum

(* A one-domain replay must leave the store equal to the sequential
   specification applied to the same admitted operations. *)
let matches_spec ~spec dump =
  if spec = dump then Ok ()
  else fail "store differs from the sequential specification"

(* The sweep document is a pure function of its configurations: the
   same bytes with and without a pool. *)
let sweep_deterministic ~sequential ~pooled =
  if String.equal sequential pooled then Ok ()
  else fail "sweep document differs between 1 and 2 jobs"

(* The bounded model check of tl2: the expected number of histories, and
   none of them non-opaque. *)
let model_check ~expected ~histories ~non_opaque =
  (if histories = expected then Ok ()
   else fail "model check visited %d histories, expected %d" histories expected)
  >>= fun () ->
  if non_opaque = 0 then Ok ()
  else fail "model check found %d non-opaque histories" non_opaque

(* tl2 at depth 10 over 2 processes and one binary t-variable. *)
let tl2_depth10_histories = 585_259
