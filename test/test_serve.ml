(* Tests for the tmserve subsystem: Zipf sanity (qcheck), workload
   determinism and conservation, the Store differential against the
   sequential-map spec under every core in the zoo, the canonical
   serve document's byte-determinism, the op-clock telemetry contract,
   and the chaos-against-the-serving-path verdicts. *)

module Prng = Tm_sim.Prng
module Zipf = Tm_serve.Zipf
module Store = Tm_serve.Store
module Workload = Tm_serve.Workload
module Server = Tm_serve.Server
module Plan = Tm_chaos.Plan
module Runner = Tm_chaos.Runner
module Tel = Tm_telemetry
module Stm = Tm_stm.Stm

(* ------------------------------------------------------------------ *)
(* Zipf. *)

let small_n = QCheck.Gen.int_range 2 512

let prop_zipf_pmf_monotone =
  QCheck.Test.make ~count:60 ~name:"zipf pmf is nonincreasing in rank"
    QCheck.(make small_n)
    (fun n ->
      let z = Zipf.create ~n () in
      let ok = ref true in
      for r = 1 to n - 1 do
        if Zipf.mass z r > Zipf.mass z (r - 1) +. 1e-12 then ok := false
      done;
      !ok)

let prop_zipf_cum_monotone =
  QCheck.Test.make ~count:60 ~name:"zipf cumulative is monotone to 1"
    QCheck.(make small_n)
    (fun n ->
      let z = Zipf.create ~n () in
      let ok = ref true in
      for r = 1 to n - 1 do
        if Zipf.cumulative_mass z r < Zipf.cumulative_mass z (r - 1) -. 1e-12
        then ok := false
      done;
      !ok && abs_float (Zipf.cumulative_mass z (n - 1) -. 1.0) < 1e-9)

let prop_zipf_sample_deterministic =
  QCheck.Test.make ~count:60 ~name:"zipf sampling is seed-deterministic"
    QCheck.(pair (make small_n) small_int)
    (fun (n, seed) ->
      let z = Zipf.create ~n () in
      let draw () =
        let g = Prng.create seed in
        List.init 64 (fun _ -> Zipf.sample z g)
      in
      let xs = draw () in
      List.for_all (fun r -> r >= 0 && r < n) xs && xs = draw ())

let test_zipf_hot_set_mass () =
  (* At the default s = 1.07 the head is genuinely hot: the top 10% of
     1000 ranks carries well over half the mass, and rank 0 alone beats
     the entire coldest 10%. *)
  let z = Zipf.create ~n:1000 () in
  let top10 = Zipf.cumulative_mass z 99 in
  Alcotest.(check bool) "top-10% mass > 0.5" true (top10 > 0.5);
  Alcotest.(check bool) "top-10% mass < 1.0" true (top10 < 1.0);
  let cold = 1.0 -. Zipf.cumulative_mass z 899 in
  Alcotest.(check bool) "rank 0 beats the coldest decile" true
    (Zipf.mass z 0 > cold);
  Alcotest.(check int) "u=0 inverts to rank 0" 0 (Zipf.sample_u z 0.0);
  Alcotest.(check int) "u->1 inverts to the last rank" 999
    (Zipf.sample_u z 0.999999999)

(* The first rank whose cumulative mass exceeds [u], by binary search
   over [Zipf.cumulative_mass]: the rank [Zipf.sample_u] must return
   for every [u] in [0, 1). *)
let reference_rank z u =
  let lo = ref 0 and hi = ref (Zipf.n z - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Zipf.cumulative_mass z mid > u then hi := mid else lo := mid + 1
  done;
  !lo

(* Exact, not approximate: every bucket edge [i / m] of the guide table
   ([m] the least power of two >= n) and the float just below it, every
   cumulative mass and its neighbours, and 100,000 uniform draws, over
   sizes on both sides of a power of two and flat to very steep skews. *)
let test_zipf_sample_matches_inversion () =
  List.iter
    (fun n ->
      List.iter
        (fun s ->
          let z = Zipf.create ~s ~n () in
          let check u =
            if u >= 0.0 && u < 1.0 then begin
              let got = Zipf.sample_u z u and want = reference_rank z u in
              if got <> want then
                Alcotest.failf "n=%d s=%g u=%h: sample_u %d, binary search %d"
                  n s u got want
            end
          in
          let rec pow2 m = if m < n then pow2 (2 * m) else m in
          let m = pow2 1 in
          for i = 0 to m - 1 do
            let edge = float_of_int i /. float_of_int m in
            check (Float.pred edge);
            check edge
          done;
          for r = 0 to n - 1 do
            let c = Zipf.cumulative_mass z r in
            check (Float.pred c);
            check c;
            check (Float.succ c)
          done;
          let g = Prng.create n in
          for _ = 1 to 100_000 do
            check (Zipf.uniform01 g)
          done)
        [ 0.0; 0.5; 1.07; 2.0; 8.0 ])
    [ 1; 2; 3; 97; 512; 513; 1000; 1024 ];
  let z = Zipf.create ~n:97 () in
  for seed = 0 to 20 do
    let g1 = Prng.create seed and g2 = Prng.create seed in
    let direct = Zipf.sample z g1 in
    let via_u = Zipf.sample_u z (Zipf.uniform01 g2) in
    Alcotest.(check int) (Fmt.str "seed %d" seed) via_u direct
  done

(* ------------------------------------------------------------------ *)
(* Workload. *)

let test_workload_deterministic () =
  List.iter
    (fun profile ->
      let w1 = Workload.create ~profile ~seed:42 ~keys:256 ()
      and w2 = Workload.create ~profile ~seed:42 ~keys:256 () in
      for client = 0 to 40 do
        for index = 0 to 5 do
          let r1 = Workload.request w1 ~client ~index
          and r2 = Workload.request w2 ~client ~index in
          Alcotest.(check bool)
            (Fmt.str "%s c%d i%d replays" (Workload.profile_name profile)
               client index)
            true (r1 = r2)
        done
      done)
    Workload.profiles

(* Digests recorded before the request generator's draws were made
   allocation-free: the request stream of every profile, one line per
   request, over clients 0-999 x indices 0-3. *)
let render_op = function
  | Store.O_get k -> Fmt.str "g%d" k
  | Store.O_put (k, v) -> Fmt.str "p%d,%d" k v
  | Store.O_add (k, d) -> Fmt.str "a%d,%d" k d
  | Store.O_cas (k, e, v) -> Fmt.str "c%d,%d,%d" k e v

let request_stream_digest profile =
  let w = Workload.create ~profile ~seed:42 ~keys:1024 () in
  let b = Buffer.create 65536 in
  for client = 0 to 999 do
    for index = 0 to 3 do
      (match Workload.request w ~client ~index with
      | Workload.Single op -> Buffer.add_string b (render_op op)
      | Workload.Txn ops ->
          Buffer.add_char b '[';
          List.iter
            (fun op ->
              Buffer.add_string b (render_op op);
              Buffer.add_char b ' ')
            ops;
          Buffer.add_char b ']');
      Buffer.add_char b '\n'
    done
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_workload_pinned () =
  List.iter
    (fun (profile, expected) ->
      Alcotest.(check string)
        (Workload.profile_name profile ^ " request stream")
        expected
        (request_stream_digest profile))
    [
      (Workload.Read_mostly, "1db5282329f0bd07c32edac75f1eb0b5");
      (Workload.Write_heavy, "a73ee186f3f0bd3929ac32b043b6dd59");
      (Workload.Long_txn, "7827af56fac7bce69fd846733be8447d");
      (Workload.Mixed, "2a4439ee1309f32967ed44c25ba1f766");
    ]

(* Minor-heap words per call, over [n] (default 100,000) calls.  Allocation is
   deterministic, so these gates hold on any number of cores. *)
let words_per ?(n = 100_000) f =
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    ignore (Sys.opaque_identity (f i))
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let at_most what bound got =
  if got > bound then Alcotest.failf "%s: %.2f words, bound %g" what got bound

(* A draw allocates nothing; a read-mostly request allocates only the
   blocks of its list view (a get's [Single] and [O_get], 4 words),
   4.5 words on average. *)
let test_generation_words () =
  let z = Zipf.create ~n:512 () and g = Prng.create 3 in
  at_most "Zipf.sample" 0. (words_per (fun _ -> Zipf.sample z g));
  let w = Workload.create ~profile:Workload.Read_mostly ~seed:1 ~keys:1024 () in
  at_most "Workload.request, read-mostly" 6.5
    (words_per (fun i ->
         Workload.request w ~client:(i land 8191) ~index:(i lsr 13)))

(* One executor's request path: fill the executor's buffer and serve
   it through [Server.serve], the dispatch [Server.run]'s executors
   use, under TL2.  Warm, a request allocates nothing: the core's write
   set reuses one write cell per key, so what remains is each key's
   first write on the domain (a 5-word cell, at most 1,024 of them),
   spread over the run.  Measured: 0.05 words per read-mostly request,
   0.21 per long transaction (16 first writes each; 28.9 when every
   first write allocated its entry) and 0.05 per combined write-heavy
   request.  With [~combined], the executor holds a one-slot combiner,
   so every single put goes through the flat combiner: publish, lock,
   drain, the stripe's flush body and release must add nothing to the
   put's own write.
   Long transactions run 20,000 requests, not 100,000: allocation is
   deterministic, so only the cold cells weigh more (0.2 words), and
   the longer loop would add 0.3 s to this suite. *)
let served_words ?(combined = false) ~n profile =
  Stm.with_algo Stm.Algo.Tl2 (fun () ->
      let store = Store.create ~keys:1024 () in
      let w = Workload.create ~profile ~seed:1 ~keys:1024 () in
      let combiner =
        if combined then Some (Server.combiner store ~domains:1) else None
      in
      let x = Server.executor ?combiner store in
      let buf = Server.executor_buffer x in
      words_per ~n (fun i ->
          Workload.fill w buf ~client:(i land 8191) ~index:(i lsr 13);
          Server.serve x))

let test_served_words () =
  at_most "served read-mostly request" 1.
    (served_words ~n:100_000 Workload.Read_mostly);
  at_most "served long-txn request" 1.
    (served_words ~n:20_000 Workload.Long_txn);
  at_most "served write-heavy request, combined" 1.
    (served_words ~combined:true ~n:100_000 Workload.Write_heavy)

(* The buffer and its list view describe the same request: every op,
   the kind, the cost, whether it mutates and whether it is a single
   put. *)
let test_buffer_matches_view () =
  let b = Store.buffer () in
  List.iter
    (fun keys ->
      List.iter
        (fun profile ->
          let w = Workload.create ~profile ~seed:5 ~keys () in
          for client = 0 to 1999 do
            let index = client mod 3 in
            let req = Workload.request w ~client ~index in
            Workload.fill w b ~client ~index;
            let ops =
              match req with
              | Workload.Single op -> [ op ]
              | Workload.Txn ops -> ops
            in
            let agree =
              List.length ops = Store.length b
              && List.for_all2 ( = ) ops
                   (List.init (Store.length b) (Store.op b))
              && Workload.kind_index req = Store.kind b
              && Workload.cost req = Store.cost b
              && Workload.mutates req = Store.mutates b
              && (match req with
                 | Workload.Single (Store.O_put _) -> true
                 | _ -> false)
                 = Workload.single_put b
            in
            if not agree then
              Alcotest.failf "%s keys %d client %d: buffer and view differ"
                (Workload.profile_name profile) keys client
          done)
        Workload.profiles)
    [ 4; 1024; 4096 ]

let test_workload_planes_and_conservation () =
  let keys = 128 in
  List.iter
    (fun profile ->
      let w = Workload.create ~profile ~seed:7 ~keys () in
      for client = 0 to 200 do
        let check_op deltas = function
          | Store.O_get k | Store.O_put (k, _) | Store.O_cas (k, _, _) ->
              Alcotest.(check bool) "kv ops hit the even plane" true
                (k >= 0 && k < keys && k mod 2 = 0);
              deltas
          | Store.O_add (k, d) ->
              Alcotest.(check bool) "transfers hit the odd plane" true
                (k >= 0 && k < keys && k mod 2 = 1);
              deltas + d
        in
        match Workload.request w ~client ~index:0 with
        | Workload.Single op -> ignore (check_op 0 op)
        | Workload.Txn ops ->
            Alcotest.(check int) "every transaction conserves" 0
              (List.fold_left check_op 0 ops)
      done)
    Workload.profiles

let test_workload_costs () =
  let w = Workload.create ~profile:Workload.Read_mostly ~seed:1 ~keys:16 () in
  Alcotest.(check int) "get costs 8" 8
    (Workload.cost (Workload.Single (Store.O_get 0)));
  Alcotest.(check int) "put costs 14" 14
    (Workload.cost (Workload.Single (Store.O_put (0, 1))));
  Alcotest.(check int) "txn costs 8 + 6/op" (8 + 12)
    (Workload.cost (Workload.Txn [ Store.O_get 0; Store.O_get 2 ]));
  ignore (Workload.zipf w)

(* ------------------------------------------------------------------ *)
(* Store: differential against the sequential-map spec. *)

let random_ops ~keys ~count seed =
  let g = Prng.create seed in
  List.init count (fun _ ->
      let k = Prng.int g keys in
      match Prng.int g 4 with
      | 0 -> Store.O_get k
      | 1 -> Store.O_put (k, Prng.int g 1000)
      | 2 -> Store.O_add (k, Prng.int g 20 - 10)
      | _ -> Store.O_cas (k, Prng.int g 4, Prng.int g 1000))

(* Single-domain replay: fold the same op stream through the store and
   through the plain-array spec; results and final contents must agree
   under every core. *)
let test_store_differential_sequential () =
  let keys = 32 in
  List.iter
    (fun algo ->
      Stm.with_algo algo (fun () ->
          let st = Store.create ~stripes:8 ~journal:true ~keys () in
          let model = Array.make keys 0 in
          let muts = ref 0 in
          for batch = 0 to 30 do
            let ops = random_ops ~keys ~count:(1 + (batch mod 5)) batch in
            let got = Store.multi st ops in
            let want = List.map (Store.spec_op model) ops in
            if List.exists Store.op_mutates ops then incr muts;
            Alcotest.(check bool)
              (Fmt.str "%s batch %d results" (Stm.Algo.name algo) batch)
              true (got = want)
          done;
          Alcotest.(check (array int))
            (Stm.Algo.name algo ^ " final contents")
            model (Store.dump st);
          Alcotest.(check int)
            (Stm.Algo.name algo ^ " journal counts mutating batches")
            !muts (Store.journal_value st)))
    Stm.Algo.all

(* Concurrent conservation: domains hammer disjoint-sum transfers plus
   journal-marked puts; the counter plane must still sum to zero and
   the journal must count every mutator, under every core. *)
let test_store_differential_concurrent () =
  let keys = 64 and nd = 3 and per = 150 in
  List.iter
    (fun algo ->
      Stm.with_algo algo (fun () ->
          let st = Store.create ~stripes:16 ~journal:true ~keys () in
          let worker d () =
            let g = Prng.create (1000 + d) in
            for _ = 1 to per do
              let a = Prng.int g (keys / 2) in
              let b = (a + 1 + Prng.int g ((keys / 2) - 1)) mod (keys / 2) in
              let d' = 1 + Prng.int g 9 in
              ignore
                (Store.multi st
                   [
                     Store.O_add ((2 * a) + 1, -d');
                     Store.O_add ((2 * b) + 1, d');
                   ])
            done
          in
          let ds = List.init nd (fun d -> Domain.spawn (worker d)) in
          List.iter Domain.join ds;
          let odd_sum = ref 0 in
          Array.iteri
            (fun k v -> if k mod 2 = 1 then odd_sum := !odd_sum + v)
            (Store.dump st);
          Alcotest.(check int)
            (Stm.Algo.name algo ^ " counter plane conserved")
            0 !odd_sum;
          Alcotest.(check int)
            (Stm.Algo.name algo ^ " journal counted every transfer")
            (nd * per) (Store.journal_value st)))
    Stm.Algo.all

(* ------------------------------------------------------------------ *)
(* Server: canonical document and admission model. *)

let small_cfg ?(profile = Workload.Read_mostly) ?(algo = Stm.Algo.Tl2)
    ?(domains = 4) ?(batching = true) ?(journal = false) () =
  Server.config ~algo ~clients:400 ~ops:3 ~keys:128 ~stripes:16 ~batching
    ~journal ~profile ~seed:42 ~domains ()

let test_server_canonical_deterministic () =
  let cfg = small_cfg () in
  let j1 = Server.to_json (Server.run cfg)
  and j2 = Server.to_json (Server.run cfg) in
  Alcotest.(check string) "two runs, byte-identical canonical JSON" j1 j2

(* The canonical document of every profile at 1 and 2 domains, as
   recorded before the executor's telemetry went to kind-indexed arrays
   and the facade's counters went per domain. *)
let test_server_pinned () =
  List.iter
    (fun (profile, domains, expected) ->
      let cfg =
        Server.config ~clients:400 ~ops:3 ~keys:128 ~stripes:16 ~profile
          ~seed:42 ~domains ()
      in
      Alcotest.(check string)
        (Fmt.str "%s at %d domains" (Workload.profile_name profile) domains)
        expected
        (Digest.to_hex (Digest.string (Server.to_json (Server.run cfg)))))
    [
      (Workload.Read_mostly, 1, "23c81acc7298bd5c5c65512017d96a5a");
      (Workload.Read_mostly, 2, "62dc969fefa63267abf3b6cd8bcec1f5");
      (Workload.Write_heavy, 1, "6156b8adbb019769578d3d69a7e02a4c");
      (Workload.Write_heavy, 2, "c21e881e53320dd57a0b1ee077922ec4");
      (Workload.Long_txn, 1, "1d10821121940955274f3c488dea6ce8");
      (Workload.Long_txn, 2, "0b9b673d8c4f8bc106d01eb130813387");
      (Workload.Mixed, 1, "2dcb729e421e6cdf2ce52437aa35b9b2");
      (Workload.Mixed, 2, "28d6f704428a8d4d6e8fca0a100ca99b");
    ]

let test_server_counts () =
  let cfg = small_cfg ~journal:true () in
  let o = Server.run cfg in
  Alcotest.(check int) "requests = clients * ops"
    (Server.total_requests cfg) o.Server.s_requests;
  Alcotest.(check int) "admitted + shed = requests" o.Server.s_requests
    (o.Server.s_admitted + o.Server.s_shed);
  Alcotest.(check int) "by-kind sums to admitted" o.Server.s_admitted
    (List.fold_left (fun a (_, n) -> a + n) 0 o.Server.s_by_kind);
  Alcotest.(check bool) "journal matches mutators" true
    o.Server.s_journal_ok;
  Alcotest.(check bool) "counter plane conserved" true o.Server.s_conserved;
  let agg f = Array.fold_left (fun a d -> a + f d) 0 o.Server.s_per_domain in
  Alcotest.(check int) "per-domain requests sum" o.Server.s_requests
    (agg (fun d -> d.Server.d_requests));
  Alcotest.(check int) "per-domain admitted sum" o.Server.s_admitted
    (agg (fun d -> d.Server.d_admitted))

let test_server_batching_invariant () =
  (* Batching changes transaction shapes, never the canonical
     admission outcome: only the batched-put count may differ, and
     with batching off it is exactly 0. *)
  let on = Server.run (small_cfg ~profile:Workload.Write_heavy ())
  and off =
    Server.run (small_cfg ~profile:Workload.Write_heavy ~batching:false ())
  in
  Alcotest.(check int) "admitted unchanged" on.Server.s_admitted
    off.Server.s_admitted;
  Alcotest.(check int) "shed unchanged" on.Server.s_shed off.Server.s_shed;
  Alcotest.(check int) "mutators unchanged" on.Server.s_mutators
    off.Server.s_mutators;
  Alcotest.(check bool) "by-kind unchanged" true
    (on.Server.s_by_kind = off.Server.s_by_kind);
  Alcotest.(check int) "no combining when batching is off" 0
    off.Server.s_batched;
  Alcotest.(check bool) "hot write-heavy load does combine" true
    (on.Server.s_batched > 0)

(* Exactly once under re-runs: every core, write-heavy, batching and
   the journal on, at 4 domains.  DSTM and NOrec abort here, so flush
   bodies re-run; a re-run must write and journal-mark the same batch,
   and every put must land in exactly one committed flush. *)
let test_server_combiner_exactly_once () =
  List.iter
    (fun algo ->
      let o =
        Server.run
          (small_cfg ~profile:Workload.Write_heavy ~algo ~journal:true ())
      in
      let name = Stm.Algo.name algo in
      Alcotest.(check bool) (name ^ " journal matches mutators") true
        o.Server.s_journal_ok;
      Alcotest.(check bool) (name ^ " counter plane conserved") true
        o.Server.s_conserved;
      Alcotest.(check bool)
        (Fmt.str "%s 0 < flushes %d <= batched %d" name o.Server.s_flushes
           o.Server.s_batched)
        true
        (0 < o.Server.s_flushes && o.Server.s_flushes <= o.Server.s_batched))
    Stm.Algo.all

let test_server_long_txn_sheds () =
  let o = Server.run (small_cfg ~profile:Workload.Long_txn ()) in
  Alcotest.(check bool) "long-txn overload sheds" true (o.Server.s_shed > 0);
  let o' = Server.run (small_cfg ~profile:Workload.Long_txn ()) in
  Alcotest.(check int) "shed count is deterministic" o.Server.s_shed
    o'.Server.s_shed

let test_server_admission_matches_iter () =
  (* The executor's shed counters and the pure replay of the admission
     model must agree exactly. *)
  let cfg = small_cfg ~profile:Workload.Long_txn () in
  let o = Server.run cfg in
  let wl = Server.workload cfg in
  for d = 0 to 3 do
    let shed = ref 0 in
    Server.iter_requests cfg wl ~domain:d ~f:(fun ~client:_ ~index:_ _ ~admitted ->
        if not admitted then incr shed);
    Alcotest.(check int)
      (Fmt.str "domain %d shed replay" d)
      o.Server.s_per_domain.(d).Server.d_shed !shed
  done

(* domains=1: replay the admitted stream through the sequential-map
   spec; the executor's final store must equal it (by hash), with
   and without the combiner.  The keys are enough that cas requests
   still find untouched (zero) keys and hit, so a cas that writes the
   wrong value shows. *)
let test_server_spec_conformance () =
  List.iter
    (fun (profile, batching) ->
      let cfg =
        Server.config ~clients:500 ~ops:3 ~keys:1024 ~stripes:8 ~batching
          ~profile ~seed:11 ~domains:1 ()
      in
      let what =
        Fmt.str "%s, batching %b" (Workload.profile_name profile) batching
      in
      let o = Server.run cfg in
      Alcotest.(check bool)
        (what ^ ": run conserved") true o.Server.s_conserved;
      let wl = Server.workload cfg in
      let model = Array.make cfg.Server.c_keys 0 in
      let cas_hits = ref 0 in
      let apply op =
        if Store.spec_op model op = Store.R_bool true then incr cas_hits
      in
      Server.iter_requests cfg wl ~domain:0
        ~f:(fun ~client:_ ~index:_ req ~admitted ->
          if admitted then
            match req with
            | Workload.Single op -> apply op
            | Workload.Txn ops -> List.iter apply ops);
      if profile = Workload.Write_heavy || profile = Workload.Mixed then
        Alcotest.(check bool)
          (what ^ ": some cas hits") true (!cas_hits > 0);
      Alcotest.(check int) (what ^ ": store = spec") (Store.hash model)
        o.Server.s_store_hash)
    (List.concat_map
       (fun p -> [ (p, true); (p, false) ])
       Workload.profiles)

(* ------------------------------------------------------------------ *)
(* Op-clock telemetry: the serving-mode export regression. *)

let test_server_telemetry_op_clock () =
  let cfg = small_cfg () in
  let capture () =
    let snaps = ref [] in
    let o = Server.run ~on_sample:(fun s -> snaps := s :: !snaps) cfg in
    ignore o;
    List.rev_map Tel.Export.to_jsonl !snaps
  in
  let run1 = capture () in
  Alcotest.(check int) "two scrapes per run" 2 (List.length run1);
  Alcotest.(check bool) "byte-deterministic serving-mode export" true
    (run1 = capture ());
  (* The timestamps are the op clock — 0 and total-requests — never
     the wall clock. *)
  let snaps = ref [] in
  ignore (Server.run ~on_sample:(fun s -> snaps := s :: !snaps) cfg);
  let ts = List.rev_map (fun s -> s.Tel.Registry.ts) !snaps in
  Alcotest.(check (list int)) "scrape ts on the op clock"
    [ 0; Server.total_requests cfg ]
    ts

(* The final scrape agrees with the outcome.  Executors count into
   plain per-domain tallies that [Server.run] publishes into the
   registry after joining them, and builds the outcome from; both views
   must hold the same numbers.  A closed-loop executor times each
   kind's 1st, 17th, 33rd, ... admitted request, so a kind with [n]
   admitted requests on a domain has exactly [(n + 15) / 16] latency
   samples there; the replay of the admission model counts them. *)
let test_server_telemetry_agrees () =
  List.iter
    (fun (domains, batching) ->
      let cfg = small_cfg ~profile:Workload.Mixed ~domains ~batching () in
      let last = ref None in
      let o = Server.run ~on_sample:(fun s -> last := Some s) cfg in
      let snap = Option.get !last in
      let what = Fmt.str "%d domains, batching %b" domains batching in
      let num name labels =
        Option.get (Tel.Registry.sample_num snap ~name ~labels)
      in
      let per_domain name total field =
        let scraped = ref 0 and summed = ref 0 in
        Array.iteri
          (fun d pd ->
            let v = num name [ ("domain", string_of_int d) ] in
            Alcotest.(check int)
              (Fmt.str "%s: %s domain %d" what name d)
              (field pd) v;
            scraped := !scraped + v;
            summed := !summed + field pd)
          o.Server.s_per_domain;
        Alcotest.(check int) (Fmt.str "%s: %s total" what name) total !scraped;
        Alcotest.(check int)
          (Fmt.str "%s: %s per-domain sum" what name)
          total !summed
      in
      per_domain "tm_serve_requests_total" o.Server.s_requests (fun d ->
          d.Server.d_requests);
      per_domain "tm_serve_admitted_total" o.Server.s_admitted (fun d ->
          d.Server.d_admitted);
      per_domain "tm_serve_shed_total" o.Server.s_shed (fun d ->
          d.Server.d_shed);
      per_domain "tm_serve_batched_total" o.Server.s_batched (fun d ->
          d.Server.d_batched);
      per_domain "tm_serve_mutators_total" o.Server.s_mutators (fun d ->
          d.Server.d_mutators);
      List.iter
        (fun (k, n) ->
          Alcotest.(check int)
            (Fmt.str "%s: admitted %s" what k)
            n
            (num "tm_serve_admitted_kind_total" [ ("kind", k) ]))
        o.Server.s_by_kind;
      let wl = Server.workload cfg in
      let sampled = Array.make (List.length Workload.kinds) 0 in
      for d = 0 to domains - 1 do
        let n = Array.make (List.length Workload.kinds) 0 in
        Server.iter_requests cfg wl ~domain:d
          ~f:(fun ~client:_ ~index:_ req ~admitted ->
            if admitted then
              let k = Workload.kind_index req in
              n.(k) <- n.(k) + 1);
        Array.iteri (fun k n -> sampled.(k) <- sampled.(k) + ((n + 15) / 16)) n
      done;
      List.iteri
        (fun k l ->
          Alcotest.(check int)
            (Fmt.str "%s: %s latency samples = 1 in 16 admitted per domain"
               what l.Server.l_kind)
            sampled.(k) l.Server.l_snap.Tel.Instrument.count)
        o.Server.s_latency;
      Alcotest.(check bool)
        (what ^ ": every count is exercised")
        true
        (o.Server.s_shed > 0 && o.Server.s_mutators > 0
        && o.Server.s_batched > 0 = batching))
    [ (1, true); (1, false); (2, true); (2, false) ]

(* ------------------------------------------------------------------ *)
(* Arrival schedules and the load curve. *)

module Arrival = Tm_serve.Arrival
module Loadcurve = Tm_serve.Loadcurve

let prop_arrival_deterministic =
  QCheck.Test.make ~count:100
    ~name:"arrival schedule is a pure function of (kind, rate, seed)"
    QCheck.(triple bool (int_range 1 1_000) small_int)
    (fun (poisson, rate_k, seed) ->
      let kind = if poisson then Arrival.Poisson else Arrival.Constant in
      let rate = float_of_int (rate_k * 100) in
      let sched () =
        Arrival.schedule (Arrival.make ~kind ~rate ~seed) ~n:64
      in
      let s = sched () in
      s = sched ()
      && s.(0) >= 0
      && Array.for_all (fun t -> t >= 0) s
      &&
      let ok = ref true in
      for i = 1 to 63 do
        if s.(i) < s.(i - 1) then ok := false
      done;
      !ok)

let test_arrival_constant () =
  let a = Arrival.make ~kind:Arrival.Constant ~rate:1_000_000. ~seed:0 in
  Alcotest.(check int) "period" 1_000 (Arrival.period_ns a);
  Alcotest.(check (array int)) "metronome"
    [| 0; 1_000; 2_000; 3_000 |]
    (Arrival.schedule a ~n:4);
  Alcotest.check_raises "rate must be positive"
    (Invalid_argument "Arrival.make: rate must be positive") (fun () ->
      ignore (Arrival.make ~kind:Arrival.Constant ~rate:0. ~seed:0))

let test_arrival_cursor_stride () =
  (* A domain serving every 4th global index skips to it and reads the
     same arrival time the flat schedule assigns — the striding
     contract the open-loop server relies on. *)
  let a = Arrival.make ~kind:Arrival.Poisson ~rate:50_000. ~seed:7 in
  let sched = Arrival.schedule a ~n:100 in
  for d = 0 to 3 do
    let c = Arrival.cursor a in
    let prev = ref (-1) in
    for i = 0 to 24 do
      let g = (i * 4) + d in
      Arrival.skip c (g - !prev - 1);
      prev := g;
      Alcotest.(check int)
        (Fmt.str "domain %d arrival %d" d g)
        sched.(g) (Arrival.next c)
    done
  done

(* The open-loop recorder's parts add up: each completed request's
   queueing delay plus its service time is its sojourn, so the sums over
   a paced run agree exactly. *)
let test_server_sojourn_reconciles () =
  let arrival = Arrival.make ~kind:Arrival.Poisson ~rate:200_000. ~seed:3 in
  let cfg =
    Server.config ~arrival ~clients:500 ~ops:2 ~keys:64 ~profile:Workload.Mixed
      ~seed:42 ~domains:2 ()
  in
  let o = Server.run cfg in
  let y = Option.get o.Server.s_open in
  let q = y.Tel.Latency_recorder.y_queueing
  and sv = y.Tel.Latency_recorder.y_service
  and so = y.Tel.Latency_recorder.y_sojourn in
  Alcotest.(check int) "every admitted request completed" o.Server.s_admitted
    so.Tel.Instrument.count;
  List.iter2
    (fun l (k, n) ->
      Alcotest.(check int)
        (Fmt.str "open loop times every admitted %s" k)
        n l.Server.l_snap.Tel.Instrument.count)
    o.Server.s_latency o.Server.s_by_kind;
  Alcotest.(check int) "queueing + service = sojourn"
    so.Tel.Instrument.sum
    (q.Tel.Instrument.sum + sv.Tel.Instrument.sum)

let lc_cfg domains =
  Server.config ~clients:500 ~ops:2 ~keys:64 ~profile:Workload.Mixed
    ~seed:42 ~domains ()

let test_loadcurve_deterministic () =
  let ladder = [ 10_000.; 50_000.; 200_000.; 1_000_000. ] in
  let run domains =
    Loadcurve.to_json
      (Loadcurve.run ~kind:Arrival.Poisson ~ladder (lc_cfg domains))
  in
  let j1 = run 1 in
  Alcotest.(check string) "two runs, byte-identical" j1 (run 1);
  Alcotest.(check string) "domains 1 vs 4, byte-identical" j1 (run 4)

let test_loadcurve_counts_and_knee () =
  let ladder = [ 10_000.; 100_000.; 1_000_000.; 10_000_000. ] in
  let curve = Loadcurve.run ~kind:Arrival.Constant ~ladder (lc_cfg 1) in
  let offered = 500 * 2 in
  List.iter
    (fun p ->
      Alcotest.(check int) "offered = clients * ops" offered
        p.Loadcurve.p_offered;
      Alcotest.(check int) "admitted + shed = offered" offered
        (p.Loadcurve.p_admitted + p.Loadcurve.p_shed))
    curve.Loadcurve.v_points;
  let sheds = List.map (fun p -> p.Loadcurve.p_shed) curve.Loadcurve.v_points in
  Alcotest.(check int) "no shedding far below capacity" 0 (List.hd sheds);
  Alcotest.(check bool) "overload sheds" true
    (List.nth sheds 3 > 0);
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "shed is monotone in offered rate" true
    (nondecreasing sheds);
  let k = Loadcurve.knee (Loadcurve.curve_xy curve) in
  Alcotest.(check bool) "knee lies inside the swept ladder" true
    (List.mem k ladder);
  Alcotest.check_raises "empty ladder rejected"
    (Invalid_argument "Loadcurve.run: empty ladder") (fun () ->
      ignore (Loadcurve.run ~kind:Arrival.Constant ~ladder:[] (lc_cfg 1)))

let test_server_open_loop_invariance () =
  (* The arrival clock paces dispatch but never the canonical outcome:
     admissions match the closed-loop run exactly and the document
     differs only in its arrival echo. *)
  let cfg = small_cfg ~domains:2 () in
  let closed = Server.run cfg in
  let arrival =
    Arrival.make ~kind:Arrival.Poisson ~rate:2_000_000. ~seed:42
  in
  let ocfg = { cfg with Server.c_arrival = Some arrival } in
  let opened = Server.run ocfg in
  Alcotest.(check int) "admitted unchanged" closed.Server.s_admitted
    opened.Server.s_admitted;
  Alcotest.(check int) "shed unchanged" closed.Server.s_shed
    opened.Server.s_shed;
  Alcotest.(check bool) "by-kind unchanged" true
    (closed.Server.s_by_kind = opened.Server.s_by_kind);
  Alcotest.(check string) "open-loop canonical json byte-deterministic"
    (Server.to_json opened)
    (Server.to_json (Server.run ocfg));
  Alcotest.(check bool) "closed run carries no recorder summary" true
    (closed.Server.s_open = None);
  Alcotest.(check bool) "open run carries one" true
    (opened.Server.s_open <> None);
  (* The two documents differ only in the arrival echo. *)
  let replace_once ~sub ~by s =
    let n = String.length s and m = String.length sub in
    let rec find i =
      if i + m > n then None
      else if String.sub s i m = sub then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> s
    | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)
  in
  Alcotest.(check string) "documents agree outside the arrival field"
    (Server.to_json closed)
    (replace_once
       ~sub:{|"arrival":{"kind":"poisson","rate":2000000.0}|}
       ~by:{|"arrival":{"kind":"closed"}|}
       (Server.to_json opened))

(* ------------------------------------------------------------------ *)
(* Chaos against the serving path. *)

let chaos_cfg algo =
  Server.config ~algo ~clients:64 ~ops:4 ~keys:64 ~stripes:8
    ~profile:Workload.Write_heavy ~seed:42 ~domains:4 ()

let test_chaos_serve_verdicts algo () =
  match Plan.make ~algo ~scenario:"crash-holding-locks" ~seed:42 ~domains:4 ()
  with
  | Error m -> Alcotest.fail m
  | Ok plan ->
      let cfg = chaos_cfg algo in
      let o = Server.chaos_run plan cfg in
      Alcotest.(check bool)
        (Stm.Algo.name algo ^ " serving path matches Figure-2 verdicts")
        true o.Runner.o_ok;
      Alcotest.(check int) "one report per domain" 4
        (List.length o.Runner.o_reports);
      (* The canonical verdict document replays byte-identically: a
         second run of the same plan classifies every domain the same
         way, and the document carries nothing measured. *)
      let o2 = Server.chaos_run plan cfg in
      Alcotest.(check bool) "replay matches Figure-2 verdicts" true
        o2.Runner.o_ok;
      Alcotest.(check string) "chaos json stable"
        (Server.chaos_to_json cfg.Server.c_profile o)
        (Server.chaos_to_json cfg.Server.c_profile o2)

let test_chaos_serve_healthy () =
  match Plan.make ~scenario:"healthy" ~seed:1 ~domains:2 () with
  | Error m -> Alcotest.fail m
  | Ok plan ->
      let o = Server.chaos_run plan (chaos_cfg Stm.Algo.Tl2) in
      Alcotest.(check bool) "healthy serving run progresses" true
        o.Runner.o_ok

(* ------------------------------------------------------------------ *)

let qsuite = List.map QCheck_alcotest.to_alcotest
  [ prop_zipf_pmf_monotone; prop_zipf_cum_monotone;
    prop_zipf_sample_deterministic ]

let () =
  Alcotest.run "serve"
    [
      ( "zipf",
        qsuite
        @ [
            Alcotest.test_case "hot-set mass" `Quick test_zipf_hot_set_mass;
            Alcotest.test_case "sample = inversion" `Quick
              test_zipf_sample_matches_inversion;
          ] );
      ( "workload",
        [
          Alcotest.test_case "deterministic replay" `Quick
            test_workload_deterministic;
          Alcotest.test_case "planes and conservation" `Quick
            test_workload_planes_and_conservation;
          Alcotest.test_case "admission costs" `Quick test_workload_costs;
          Alcotest.test_case "request streams pinned" `Quick
            test_workload_pinned;
          Alcotest.test_case "generation allocation" `Quick
            test_generation_words;
          Alcotest.test_case "buffer matches its view" `Quick
            test_buffer_matches_view;
        ] );
      ( "store",
        [
          Alcotest.test_case "differential vs spec (sequential)" `Quick
            test_store_differential_sequential;
          Alcotest.test_case "differential vs spec (concurrent)" `Quick
            test_store_differential_concurrent;
        ] );
      ( "server",
        [
          Alcotest.test_case "canonical json byte-deterministic" `Quick
            test_server_canonical_deterministic;
          Alcotest.test_case "canonical documents pinned" `Quick
            test_server_pinned;
          Alcotest.test_case "count invariants" `Quick test_server_counts;
          Alcotest.test_case "batching leaves canon unchanged" `Quick
            test_server_batching_invariant;
          Alcotest.test_case "long-txn sheds deterministically" `Quick
            test_server_long_txn_sheds;
          Alcotest.test_case "admission matches pure replay" `Quick
            test_server_admission_matches_iter;
          Alcotest.test_case "sequential-spec conformance" `Quick
            test_server_spec_conformance;
          Alcotest.test_case "telemetry rides the op clock" `Quick
            test_server_telemetry_op_clock;
          Alcotest.test_case "served-request allocation" `Quick
            test_served_words;
          Alcotest.test_case "combined puts apply exactly once" `Quick
            test_server_combiner_exactly_once;
          Alcotest.test_case "final scrape agrees with the outcome" `Quick
            test_server_telemetry_agrees;
        ] );
      ( "arrival",
        [
          QCheck_alcotest.to_alcotest prop_arrival_deterministic;
          Alcotest.test_case "constant kind is a metronome" `Quick
            test_arrival_constant;
          Alcotest.test_case "cursor striding matches the schedule" `Quick
            test_arrival_cursor_stride;
        ] );
      ( "loadcurve",
        [
          Alcotest.test_case "canonical json ignores domains" `Quick
            test_loadcurve_deterministic;
          Alcotest.test_case "counts, shedding and the knee" `Quick
            test_loadcurve_counts_and_knee;
          Alcotest.test_case "open loop leaves the canon unchanged" `Quick
            test_server_open_loop_invariance;
          Alcotest.test_case "queueing + service = sojourn" `Quick
            test_server_sojourn_reconciles;
        ] );
      ( "chaos-serve",
        [
          Alcotest.test_case "crash-holding-locks tl2" `Quick
            (test_chaos_serve_verdicts Stm.Algo.Tl2);
          Alcotest.test_case "crash-holding-locks dstm" `Quick
            (test_chaos_serve_verdicts Stm.Algo.Dstm);
          Alcotest.test_case "healthy" `Quick test_chaos_serve_healthy;
        ] );
    ]
