(* Cross-algorithm differential conformance of the real STM zoo.

   Every real multicore core (tl2, global-lock, dstm, norec) runs the
   same seeded transactional workloads and must agree with:
   - the sequential specification (a plain array interpreter),
   - the matching simulator algorithm from lib/tm, driven through the
     same operations via invoke/poll,
   - every other core, on commuting multi-domain workloads (qcheck).

   The workload interpreter is shared verbatim between all four
   backends, so any divergence is an algorithm bug, not a harness
   artefact. *)

module Stm = Tm_stm.Stm
module Event = Tm_history.Event
module Reg = Tm_impl.Registry
module Intf = Tm_impl.Tm_intf

let count =
  match Sys.getenv_opt "TM_QCHECK_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 50)
  | None -> 50

let ntvars = 4

(* The simulator registry's counterpart of each real core. *)
let sim_name_of = function
  | Stm.Algo.Tl2 -> "tl2"
  | Stm.Algo.Global_lock -> "global-lock"
  | Stm.Algo.Dstm -> "dstm-aggressive"
  | Stm.Algo.Norec -> "norec"

(* {1 Seeded workloads} *)

type action =
  | Inc of int * int  (** [Inc (x, a)]: x := x + a *)
  | Copy of int * int  (** [Copy (x, y)]: y := x *)
  | Mix of int * int  (** [Mix (x, y)]: x := x + y *)

let lcg st =
  st := (!st * 48271) mod 0x7FFFFFFF;
  !st

let gen_txn st =
  let n = 1 + (lcg st mod 3) in
  List.init n (fun _ ->
      let x = lcg st mod ntvars in
      let y = lcg st mod ntvars in
      match lcg st mod 3 with
      | 0 -> Inc (x, 1 + (lcg st mod 9))
      | 1 -> Copy (x, y)
      | _ -> Mix (x, y))

let gen_workload ~txns seed =
  let st = ref (if seed <= 0 then 1 else seed) in
  List.init txns (fun _ -> gen_txn st)

(* One interpreter for every backend: [read]/[write] close over the
   backend's state. *)
let apply_txn ~read ~write actions =
  List.iter
    (function
      | Inc (x, a) -> write x (read x + a)
      | Copy (x, y) -> write y (read x)
      | Mix (x, y) -> write x (read x + read y))
    actions

(* {1 Backends} *)

let run_model workload =
  let arr = Array.make ntvars 0 in
  List.iter
    (fun txn -> apply_txn ~read:(Array.get arr) ~write:(Array.set arr) txn)
    workload;
  arr

let run_real algo workload =
  Stm.with_algo algo (fun () ->
      let tvs = Array.init ntvars (fun _ -> Stm.tvar 0) in
      List.iter
        (fun txn ->
          Stm.atomically (fun () ->
              apply_txn
                ~read:(fun x -> Stm.read tvs.(x))
                ~write:(fun x v -> Stm.write tvs.(x) v)
                txn))
        workload;
      Array.map (fun tv -> Stm.atomically (fun () -> Stm.read tv)) tvs)

(* Drive a simulator TM through the identical workload, one process,
   polling each invocation to its response. *)
let run_sim name workload =
  let entry =
    match Reg.find name with
    | Some e -> e
    | None -> Alcotest.failf "simulator TM %S not registered" name
  in
  let inst = Reg.instance entry (Intf.config ~nprocs:1 ~ntvars ()) in
  let respond inv =
    match Intf.call inst ~patience:100_000 ~record:ignore 1 inv with
    | Some r -> r
    | None -> Alcotest.failf "%s: no response within patience" name
  in
  let read x =
    match respond (Event.Read x) with
    | Event.Value v -> v
    | r ->
        Alcotest.failf "%s: read answered %s" name
          (Fmt.str "%a" Event.pp (Event.Res (1, r)))
  in
  let write x v =
    match respond (Event.Write (x, v)) with
    | Event.Ok_written -> ()
    | r ->
        Alcotest.failf "%s: write answered %s" name
          (Fmt.str "%a" Event.pp (Event.Res (1, r)))
  in
  let commit () =
    match respond Event.Try_commit with
    | Event.Committed -> ()
    | r ->
        Alcotest.failf "%s: solo tryC answered %s" name
          (Fmt.str "%a" Event.pp (Event.Res (1, r)))
  in
  List.iter
    (fun txn ->
      apply_txn ~read ~write txn;
      commit ())
    workload;
  let final = Array.init ntvars (fun x -> read x) in
  commit ();
  final

let check_arrays label expected got =
  Alcotest.(check (array int)) label expected got

(* {1 Tests} *)

(* Every real core must compute the sequential specification on a
   single domain: transactions applied in order, no concurrency. *)
let test_sequential_spec () =
  List.iter
    (fun seed ->
      let workload = gen_workload ~txns:40 seed in
      let spec = run_model workload in
      List.iter
        (fun algo ->
          check_arrays
            (Fmt.str "%s seed=%d equals sequential spec" (Stm.Algo.name algo)
               seed)
            spec (run_real algo workload))
        Stm.Algo.all)
    [ 1; 2; 3; 4; 5 ]

(* The matching simulator algorithm, fed the identical workload through
   invoke/poll, must land on the same final state. *)
let test_matches_simulator () =
  List.iter
    (fun seed ->
      let workload = gen_workload ~txns:25 seed in
      List.iter
        (fun algo ->
          let real = run_real algo workload in
          let sim = run_sim (sim_name_of algo) workload in
          check_arrays
            (Fmt.str "%s seed=%d equals simulator %s" (Stm.Algo.name algo)
               seed (sim_name_of algo))
            real sim)
        Stm.Algo.all)
    [ 1; 2; 3 ]

(* Commuting multi-domain workloads: per-t-variable increments from
   several domains commute, so every algorithm must reach the same
   final state — the model's per-t-variable sums — whatever
   interleaving and abort/retry pattern it took. *)
let ndomains = 3

let run_commuting algo chunks tvs_init =
  Stm.with_algo algo (fun () ->
      let tvs = Array.map Stm.tvar tvs_init in
      let doms =
        List.map
          (fun chunk ->
            Domain.spawn (fun () ->
                List.iter
                  (fun (x, d) ->
                    Stm.atomically (fun () ->
                        Stm.write tvs.(x) (Stm.read tvs.(x) + d)))
                  chunk))
          chunks
      in
      List.iter Domain.join doms;
      Array.map (fun tv -> Stm.atomically (fun () -> Stm.read tv)) tvs)

let chunk_ops ops =
  let chunks = Array.make ndomains [] in
  List.iteri (fun i op -> chunks.(i mod ndomains) <- op :: chunks.(i mod ndomains)) ops;
  Array.to_list chunks

let commuting_gen =
  QCheck2.Gen.(
    list_size (int_range 0 24)
      (pair (int_range 0 (ntvars - 1)) (int_range (-5) 5)))

let prop_commuting_agreement =
  QCheck2.Test.make ~count ~name:"all algorithms agree on commuting workloads"
    commuting_gen (fun ops ->
      let expected = Array.make ntvars 0 in
      List.iter (fun (x, d) -> expected.(x) <- expected.(x) + d) ops;
      let chunks = chunk_ops ops in
      List.for_all
        (fun algo ->
          run_commuting algo chunks (Array.make ntvars 0) = expected)
        Stm.Algo.all)

let () =
  Alcotest.run "tm_zoo_conformance"
    [
      ( "differential",
        [
          Alcotest.test_case "sequential spec, every core" `Quick
            test_sequential_spec;
          Alcotest.test_case "simulator twins agree" `Quick
            test_matches_simulator;
        ] );
      ( "commuting",
        [ QCheck_alcotest.to_alcotest prop_commuting_agreement ] );
    ]
