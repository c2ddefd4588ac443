(* Tests for the formal-model substrate: events, histories, transactions,
   lassos, and the paper-figure encodings. *)

open Tm_history

(* ------------------------------------------------------------------ *)
(* Generators shared with the property tests. *)

let gen_invocation =
  QCheck2.Gen.(
    oneof
      [
        map (fun x -> Event.Read x) (int_bound 3);
        map2 (fun x v -> Event.Write (x, v)) (int_bound 3) (int_bound 5);
        return Event.Try_commit;
      ])

let gen_response_for inv =
  QCheck2.Gen.(
    match inv with
    | Event.Read _ ->
        oneof
          [
            map (fun v -> Event.Value v) (int_bound 5); return Event.Aborted;
          ]
    | Event.Write _ -> oneofl [ Event.Ok_written; Event.Aborted ]
    | Event.Try_commit -> oneofl [ Event.Committed; Event.Aborted ])

(* Generate a well-formed history by interleaving per-process alternating
   invocation/response pairs. *)
let gen_history =
  QCheck2.Gen.(
    let* nprocs = int_range 1 4 in
    let* nsteps = int_range 0 40 in
    let rec go pending acc n =
      if n = 0 then return (List.rev acc)
      else
        let* p = int_range 1 nprocs in
        match List.assoc_opt p pending with
        | None ->
            let* inv = gen_invocation in
            go ((p, inv) :: pending) (Event.Inv (p, inv) :: acc) (n - 1)
        | Some inv ->
            let* res = gen_response_for inv in
            go
              (List.remove_assoc p pending)
              (Event.Res (p, res) :: acc)
              (n - 1)
    in
    let* es = go [] [] nsteps in
    return (History.of_events es))

(* ------------------------------------------------------------------ *)
(* Unit tests: events. *)

let test_matches () =
  Alcotest.(check bool)
    "read/value" true
    (Event.matches (Event.Read 0) (Event.Value 3));
  Alcotest.(check bool)
    "read/ok" false
    (Event.matches (Event.Read 0) Event.Ok_written);
  Alcotest.(check bool)
    "write/ok" true
    (Event.matches (Event.Write (0, 1)) Event.Ok_written);
  Alcotest.(check bool)
    "write/commit" false
    (Event.matches (Event.Write (0, 1)) Event.Committed);
  Alcotest.(check bool)
    "tryC/C" true
    (Event.matches Event.Try_commit Event.Committed);
  Alcotest.(check bool)
    "tryC/value" false
    (Event.matches Event.Try_commit (Event.Value 0));
  Alcotest.(check bool)
    "anything/abort" true
    (Event.matches (Event.Read 1) Event.Aborted)

let test_event_predicates () =
  Alcotest.(check bool) "commit" true (Event.is_commit (Res (1, Committed)));
  Alcotest.(check bool) "abort" true (Event.is_abort (Res (2, Aborted)));
  Alcotest.(check bool)
    "tryC" true
    (Event.is_try_commit (Inv (1, Try_commit)));
  Alcotest.(check int) "proc of inv" 3 (Event.proc (Inv (3, Read 0)));
  Alcotest.(check int) "proc of res" 2 (Event.proc (Res (2, Value 1)))

let test_event_pp () =
  Alcotest.(check string) "read inv" "x0.read_1"
    (Event.to_string (Inv (1, Read 0)));
  Alcotest.(check string) "write inv" "x2.write(5)_3"
    (Event.to_string (Inv (3, Write (2, 5))));
  Alcotest.(check string) "commit" "C_1" (Event.to_string (Res (1, Committed)))

(* ------------------------------------------------------------------ *)
(* Unit tests: histories. *)

let test_well_formed_ok () =
  List.iter
    (fun (name, h) ->
      match History.well_formed h with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s should be well-formed: %s" name m)
    Figures.all_finite

let test_well_formed_bad () =
  let bad1 = History.of_events [ Event.Res (1, Event.Value 0) ] in
  Alcotest.(check bool)
    "response without invocation" false
    (History.is_well_formed bad1);
  let bad2 =
    History.of_events
      [ Event.Inv (1, Event.Read 0); Event.Inv (1, Event.Read 1) ]
  in
  Alcotest.(check bool)
    "two pending invocations" false
    (History.is_well_formed bad2);
  let bad3 =
    History.of_events
      [ Event.Inv (1, Event.Read 0); Event.Res (1, Event.Ok_written) ]
  in
  Alcotest.(check bool)
    "mismatched response kind" false
    (History.is_well_formed bad3);
  let bad4 =
    History.of_events
      [ Event.Inv (1, Event.Try_commit); Event.Res (1, Event.Value 2) ]
  in
  Alcotest.(check bool)
    "value answering tryC" false
    (History.is_well_formed bad4)

let test_projection () =
  let h = Figures.fig3 in
  let p1 = History.project h 1 in
  Alcotest.(check int) "p1 has 6 events" 6 (List.length p1);
  List.iter
    (fun e -> Alcotest.(check int) "projection only holds p1" 1 (Event.proc e))
    p1;
  Alcotest.(check (list int)) "procs" [ 1; 2 ] (History.procs h);
  Alcotest.(check (list int)) "tvars" [ 0 ] (History.tvars h)

let test_equivalent () =
  let h = Figures.fig3 in
  Alcotest.(check bool) "reflexive" true (History.equivalent h h);
  (* Swapping two adjacent events of different processes preserves
     per-process projections. *)
  let es = Array.of_list (History.events h) in
  let swapped =
    let rec find i =
      if i + 1 >= Array.length es then
        Alcotest.fail "expected adjacent events of two different processes"
      else if Event.proc es.(i) <> Event.proc es.(i + 1) then i
      else find (i + 1)
    in
    let i = find 0 in
    let es' = Array.copy es in
    es'.(i) <- es.(i + 1);
    es'.(i + 1) <- es.(i);
    History.of_events (Array.to_list es')
  in
  Alcotest.(check bool) "swap equivalent" true (History.equivalent h swapped);
  Alcotest.(check bool)
    "different histories differ" false
    (History.equivalent Figures.fig3 Figures.fig4)

let test_complete () =
  (* fig3 is already complete. *)
  Alcotest.(check bool) "fig3 complete" true (History.is_complete Figures.fig3);
  (* A history with a live transaction gets it aborted. *)
  let h = History.steps [ History.read 1 0 0 ] in
  let c = History.complete h in
  Alcotest.(check bool) "completion is complete" true (History.is_complete c);
  Alcotest.(check int) "one abort added" 1 (History.abort_count c 1);
  Alcotest.(check bool) "completion well-formed" true (History.is_well_formed c);
  (* A pending invocation is answered by a bare abort. *)
  let h2 = History.of_events [ Event.Inv (2, Event.Read 0) ] in
  let c2 = History.complete h2 in
  Alcotest.(check int) "pending answered" 2 (History.length c2);
  Alcotest.(check bool) "c2 well-formed" true (History.is_well_formed c2)

(* [iter] walks the shared spine in chunks; [rev_events] is that spine.
   Lengths around the chunk size and its multiples. *)
let test_iter_and_spine () =
  List.iter
    (fun n ->
      let es =
        List.init n (fun i ->
            if i mod 2 = 0 then Event.Inv (1 + (i mod 3), Event.Read i)
            else Event.Res (1 + (i mod 3), Event.Value i))
      in
      let h = History.of_events es in
      let seen = ref [] in
      History.iter (fun e -> seen := e :: !seen) h;
      Alcotest.(check bool)
        (Fmt.str "iter visits %d events in order" n)
        true
        (List.equal Event.equal es (List.rev !seen));
      let e = Event.Inv (1, Event.Try_commit) in
      Alcotest.(check bool) "append shares the spine" true
        (List.tl (History.rev_events (History.append h e))
        == History.rev_events h))
    [ 0; 1; 15; 16; 17; 31; 32; 33; 100; 1000 ]

let test_counts () =
  let h = Figures.fig3 in
  Alcotest.(check int) "p1 commits" 1 (History.commit_count h 1);
  Alcotest.(check int) "p2 commits" 1 (History.commit_count h 2);
  Alcotest.(check int) "p1 aborts" 0 (History.abort_count h 1);
  Alcotest.(check int) "p1 tryC" 1 (History.try_commit_count h 1);
  let f1 = Figures.fig1 in
  Alcotest.(check int) "fig1 p1 never commits" 0 (History.commit_count f1 1);
  Alcotest.(check int) "fig1 p1 aborted once" 1 (History.abort_count f1 1)

(* ------------------------------------------------------------------ *)
(* Unit tests: transactions. *)

let test_transactions_fig3 () =
  let ts = Transaction.of_history Figures.fig3 in
  Alcotest.(check int) "two transactions" 2 (List.length ts);
  let t1 = List.find (fun t -> t.Transaction.proc = 1) ts in
  let t2 = List.find (fun t -> t.Transaction.proc = 2) ts in
  Alcotest.(check bool) "t1 committed" true (Transaction.is_committed t1);
  Alcotest.(check bool) "t2 committed" true (Transaction.is_committed t2);
  Alcotest.(check bool) "concurrent" true (Transaction.concurrent t1 t2);
  Alcotest.(check bool) "no precedence" false (Transaction.precedes t1 t2)

let test_transactions_fig4 () =
  let ts = Transaction.of_history Figures.fig4 in
  Alcotest.(check int) "two transactions" 2 (List.length ts);
  let t1 = List.find (fun t -> t.Transaction.proc = 1) ts in
  let t2 = List.find (fun t -> t.Transaction.proc = 2) ts in
  Alcotest.(check bool) "t1 aborted" true (Transaction.is_aborted t1);
  Alcotest.(check (list (pair int int)))
    "t1 reads 0 then 1"
    [ (0, 0); (0, 1) ]
    (Transaction.reads t1);
  Alcotest.(check (list (pair int int)))
    "t2 writes 1"
    [ (0, 1) ]
    (Transaction.writes t2)

let test_transactions_multi () =
  (* One process, three transactions. *)
  let h =
    History.steps
      [
        History.read 1 0 0;
        History.commit 1;
        History.write 1 0 1;
        History.abort 1;
        History.read 1 0 1;
      ]
  in
  let ts = Transaction.of_process h 1 in
  Alcotest.(check int) "three transactions" 3 (List.length ts);
  let seqs = List.map (fun t -> t.Transaction.seq) ts in
  Alcotest.(check (list int)) "sequence numbers" [ 0; 1; 2 ] seqs;
  let statuses = List.map (fun t -> t.Transaction.status) ts in
  Alcotest.(check bool)
    "statuses" true
    (statuses = [ Transaction.Committed; Transaction.Aborted; Transaction.Live ]);
  match ts with
  | [ t0; t1; t2 ] ->
      Alcotest.(check bool) "t0 precedes t1" true (Transaction.precedes t0 t1);
      Alcotest.(check bool) "t1 precedes t2" true (Transaction.precedes t1 t2);
      Alcotest.(check bool)
        "live t2 precedes nothing" false
        (Transaction.precedes t2 t0)
  | _ -> Alcotest.fail "expected three transactions"

let test_aborted_op_not_completed () =
  (* A write answered by A is not a completed operation. *)
  let h = History.steps [ History.read 1 0 0; History.write_aborted 1 0 1 ] in
  let ts = Transaction.of_process h 1 in
  match ts with
  | [ t ] ->
      Alcotest.(check (list (pair int int)))
        "only the read completed"
        [ (0, 0) ]
        (Transaction.reads t);
      Alcotest.(check (list (pair int int))) "no writes" [] (Transaction.writes t);
      Alcotest.(check bool) "aborted" true (Transaction.is_aborted t)
  | _ -> Alcotest.fail "expected one transaction"

let test_last_write () =
  let h =
    History.steps
      [ History.write 1 0 1; History.write 1 0 2; History.write 1 1 7 ]
  in
  match Transaction.of_process h 1 with
  | [ t ] ->
      Alcotest.(check (option int)) "last write x0" (Some 2)
        (Transaction.last_write t 0);
      Alcotest.(check (option int)) "last write x1" (Some 7)
        (Transaction.last_write t 1);
      Alcotest.(check (option int)) "no write x2" None
        (Transaction.last_write t 2);
      Alcotest.(check (list int)) "write set" [ 0; 1 ] (Transaction.write_set t)
  | _ -> Alcotest.fail "expected one transaction"

(* ------------------------------------------------------------------ *)
(* Unit tests: lassos. *)

let test_lasso_well_formed () =
  List.iter
    (fun (name, _l) ->
      (* Construction already validates; re-check the unrolling. *)
      let l = List.assoc name Figures.all_lassos in
      let h = Lasso.unroll l 3 in
      Alcotest.(check bool)
        (name ^ " unrolling well-formed")
        true
        (History.is_well_formed h))
    Figures.all_lassos

let test_lasso_rejects_bad () =
  (match Lasso.check ~stem:[] ~cycle:[] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty cycle accepted");
  (* A cycle that leaves a pending invocation un-answered across iterations
     is rejected. *)
  match Lasso.check ~stem:[] ~cycle:[ Event.Inv (1, Event.Read 0) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-repeating pending state accepted"

let test_lasso_infinite () =
  let l = Figures.fig7 in
  Alcotest.(check bool) "p1 finite" false (Lasso.projection_infinite l 1);
  Alcotest.(check bool) "p2 infinite" true (Lasso.projection_infinite l 2);
  Alcotest.(check bool) "p3 infinite" true (Lasso.projection_infinite l 3);
  Alcotest.(check bool)
    "p3 commits infinitely" true
    (Lasso.infinitely_many l Event.is_commit 3);
  Alcotest.(check bool)
    "p2 never commits in cycle" false
    (Lasso.infinitely_many l Event.is_commit 2);
  Alcotest.(check int)
    "p2 committed once in stem" 1
    (Lasso.finite_count l Event.is_commit 2)

let test_lasso_rotate () =
  let l = Figures.fig5 in
  let r = Lasso.rotate l in
  Alcotest.(check bool)
    "rotation preserves infinite commits of p1" true
    (Lasso.infinitely_many r Event.is_commit 1);
  let u = Lasso.unroll_cycle_into_stem l in
  Alcotest.(check bool)
    "unrolled cycle preserves infinite commits" true
    (Lasso.infinitely_many u Event.is_commit 1)

(* ------------------------------------------------------------------ *)
(* Unit tests: figure sanity. *)

let test_fig16_shape () =
  let h = Figures.fig16 in
  Alcotest.(check bool) "well-formed" true (History.is_well_formed h);
  Alcotest.(check (list int)) "procs" [ 1; 2; 3 ] (History.procs h);
  Alcotest.(check (list int)) "tvars" [ 0; 1 ] (History.tvars h);
  Alcotest.(check int) "p1 commits once" 1 (History.commit_count h 1);
  Alcotest.(check int) "p1 aborted once" 1 (History.abort_count h 1);
  Alcotest.(check int) "p2 commits once" 1 (History.commit_count h 2);
  Alcotest.(check int) "p2 aborted once" 1 (History.abort_count h 2);
  Alcotest.(check int) "p3 commits once" 1 (History.commit_count h 3);
  let ts = Transaction.of_history h in
  Alcotest.(check int) "five transactions" 5 (List.length ts)

let test_pretty_smoke () =
  List.iter
    (fun (_, h) ->
      let s = Fmt.str "%a" Pretty.pp_by_process h in
      Alcotest.(check bool) "nonempty rendering" true (String.length s > 0);
      let t = Fmt.str "%a" Pretty.pp_timeline h in
      Alcotest.(check bool) "nonempty timeline" true (String.length t > 0))
    Figures.all_finite;
  List.iter
    (fun (_, l) ->
      let s = Fmt.str "%a" Pretty.pp_lasso l in
      Alcotest.(check bool) "nonempty lasso rendering" true (String.length s > 0))
    Figures.all_lassos

(* ------------------------------------------------------------------ *)
(* Pretty-printing tokens and event ordering. *)

let test_pretty_tokens () =
  Alcotest.(check string) "read inv" "x0.r"
    (Pretty.op_token (Event.Inv (1, Event.Read 0)));
  Alcotest.(check string) "write inv" "x2.w(7)"
    (Pretty.op_token (Event.Inv (1, Event.Write (2, 7))));
  Alcotest.(check string) "tryC" "tryC"
    (Pretty.op_token (Event.Inv (1, Event.Try_commit)));
  Alcotest.(check string) "value" "->3"
    (Pretty.op_token (Event.Res (1, Event.Value 3)));
  Alcotest.(check string) "ok" "ok"
    (Pretty.op_token (Event.Res (1, Event.Ok_written)));
  Alcotest.(check string) "commit" "C"
    (Pretty.op_token (Event.Res (1, Event.Committed)));
  Alcotest.(check string) "abort" "A"
    (Pretty.op_token (Event.Res (1, Event.Aborted)))

let test_pretty_fused_rows () =
  let s = Fmt.str "%a" Pretty.pp_by_process Figures.fig1 in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "fused read" true (contains "x0.r->0");
  Alcotest.(check bool) "aborted write token" true (contains "x0.w(1):A");
  Alcotest.(check bool) "commit bracket" true (contains "C]")

let test_event_compare_total () =
  let es =
    Event.
      [
        Inv (1, Read 0); Inv (1, Write (0, 1)); Inv (2, Try_commit);
        Res (1, Value 0); Res (2, Ok_written); Res (1, Committed);
        Res (2, Aborted);
      ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let ab = Event.compare a b and ba = Event.compare b a in
          Alcotest.(check bool) "antisymmetric" true
            ((ab > 0 && ba < 0) || (ab < 0 && ba > 0) || (ab = 0 && ba = 0));
          Alcotest.(check bool) "consistent with equal" true
            (Event.equal a b = (ab = 0)))
        es)
    es

(* ------------------------------------------------------------------ *)
(* The codec (trace serialization), round-tripped on the figures and on
   generated events. *)

let test_codec_roundtrip_figures () =
  List.iter
    (fun (name, h) ->
      match Codec.history_of_string (Codec.history_to_string h) with
      | Ok h' ->
          Alcotest.(check bool) (name ^ " round-trips") true (History.equal h h')
      | Error m -> Alcotest.failf "%s: %s" name m)
    Figures.all_finite;
  List.iter
    (fun (name, l) ->
      match Codec.lasso_of_string (Codec.lasso_to_string l) with
      | Ok l' ->
          Alcotest.(check bool)
            (name ^ " lasso round-trips")
            true
            (l.Lasso.stem = l'.Lasso.stem && l.Lasso.cycle = l'.Lasso.cycle)
      | Error m -> Alcotest.failf "%s: %s" name m)
    Figures.all_lassos

let test_codec_rejects_garbage () =
  (match Codec.event_of_string "inv one read 0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-numeric process accepted");
  (match Codec.history_of_string "res 1 value 0\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ill-formed history accepted");
  match Codec.lasso_of_string "inv 1 read 0\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "lasso without cycle separator accepted"

let test_codec_comments_and_blanks () =
  let text = "# a comment\n\ninv 1 read 0\nres 1 value 0\n\n" in
  match Codec.history_of_string text with
  | Ok h -> Alcotest.(check int) "two events" 2 (History.length h)
  | Error m -> Alcotest.fail m

let prop_codec_roundtrip =
  let gen_event =
    QCheck2.Gen.(
      let* p = int_range 1 5 in
      oneof
        [
          map (fun x -> Event.Inv (p, Event.Read x)) (int_bound 10);
          map2
            (fun x v -> Event.Inv (p, Event.Write (x, v)))
            (int_bound 10) (int_bound 100);
          return (Event.Inv (p, Event.Try_commit));
          map (fun v -> Event.Res (p, Event.Value v)) (int_bound 100);
          return (Event.Res (p, Event.Ok_written));
          return (Event.Res (p, Event.Committed));
          return (Event.Res (p, Event.Aborted));
        ])
  in
  QCheck2.Test.make ~count:500 ~name:"event codec round-trips" gen_event
    (fun e ->
      match Codec.event_of_string (Codec.event_to_string e) with
      | Ok e' -> Event.equal e e'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Property tests. *)

let prop_generated_well_formed =
  QCheck2.Test.make ~count:300 ~name:"generated histories are well-formed"
    gen_history (fun h -> History.is_well_formed h)

let prop_completion_complete =
  QCheck2.Test.make ~count:300 ~name:"com(H) is complete and well-formed"
    gen_history (fun h ->
      let c = History.complete h in
      History.is_complete c && History.is_well_formed c)

let prop_completion_idempotent =
  QCheck2.Test.make ~count:300 ~name:"com is idempotent" gen_history (fun h ->
      let c = History.complete h in
      History.equal (History.complete c) c)

let prop_completion_preserves_commits =
  QCheck2.Test.make ~count:300 ~name:"com(H) preserves commit counts"
    gen_history (fun h ->
      let c = History.complete h in
      List.for_all
        (fun p -> History.commit_count h p = History.commit_count c p)
        (History.procs h))

let prop_projection_partition =
  QCheck2.Test.make ~count:300
    ~name:"projections partition the event sequence" gen_history (fun h ->
      let total =
        List.fold_left
          (fun acc p -> acc + List.length (History.project h p))
          0 (History.procs h)
      in
      total = History.length h)

let prop_equivalence_under_commuting_swap =
  QCheck2.Test.make ~count:300
    ~name:"swapping adjacent events of distinct processes preserves \
           equivalence"
    gen_history (fun h ->
      let es = Array.of_list (History.events h) in
      let n = Array.length es in
      if n < 2 then true
      else
        (* Swap the first eligible adjacent pair. *)
        let rec find i =
          if i + 1 >= n then None
          else if Event.proc es.(i) <> Event.proc es.(i + 1) then Some i
          else find (i + 1)
        in
        match find 0 with
        | None -> true
        | Some i ->
            let es' = Array.copy es in
            es'.(i) <- es.(i + 1);
            es'.(i + 1) <- es.(i);
            History.equivalent h (History.of_events (Array.to_list es')))

let prop_transactions_cover_events =
  QCheck2.Test.make ~count:300
    ~name:"transactions of a process partition its projection" gen_history
    (fun h ->
      List.for_all
        (fun p ->
          let ts = Transaction.of_process h p in
          let covered =
            List.concat_map (fun t -> t.Transaction.events) ts
          in
          List.equal Event.equal covered (History.project h p))
        (History.procs h))

let prop_transaction_at_most_one_terminal =
  QCheck2.Test.make ~count:300
    ~name:"no transaction contains C/A except as last event" gen_history
    (fun h ->
      List.for_all
        (fun t ->
          match List.rev t.Transaction.events with
          | [] -> false
          | _last :: before ->
              List.for_all
                (fun e -> not (Event.is_commit e || Event.is_abort e))
                before)
        (Transaction.of_history h))

let prop_real_time_order_irreflexive_transitive =
  QCheck2.Test.make ~count:200 ~name:"real-time order is a strict order"
    gen_history (fun h ->
      let ts = Transaction.of_history h in
      List.for_all (fun t -> not (Transaction.precedes t t)) ts
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 List.for_all
                   (fun c ->
                     (not (Transaction.precedes a b && Transaction.precedes b c))
                     || Transaction.precedes a c)
                   ts)
               ts)
           ts)

let prop_lasso_rotation_preserves_verdicts =
  let lasso_gen =
    QCheck2.Gen.oneofl (List.map snd Figures.all_lassos)
  in
  QCheck2.Test.make ~count:50
    ~name:"lasso rotation preserves infinitary verdicts" lasso_gen (fun l ->
      let r = Lasso.rotate (Lasso.rotate l) in
      List.for_all
        (fun p ->
          Lasso.projection_infinite l p = Lasso.projection_infinite r p
          && Lasso.infinitely_many l Event.is_commit p
             = Lasso.infinitely_many r Event.is_commit p
          && Lasso.infinitely_many l Event.is_abort p
             = Lasso.infinitely_many r Event.is_abort p
          && Lasso.infinitely_many l Event.is_try_commit p
             = Lasso.infinitely_many r Event.is_try_commit p)
        (Lasso.procs l))

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_generated_well_formed;
      prop_completion_complete;
      prop_completion_idempotent;
      prop_completion_preserves_commits;
      prop_projection_partition;
      prop_equivalence_under_commuting_swap;
      prop_transactions_cover_events;
      prop_transaction_at_most_one_terminal;
      prop_real_time_order_irreflexive_transitive;
      prop_lasso_rotation_preserves_verdicts;
    ]

let () =
  Alcotest.run "tm_history"
    [
      ( "events",
        [
          Alcotest.test_case "matches" `Quick test_matches;
          Alcotest.test_case "predicates" `Quick test_event_predicates;
          Alcotest.test_case "printing" `Quick test_event_pp;
        ] );
      ( "histories",
        [
          Alcotest.test_case "figures well-formed" `Quick test_well_formed_ok;
          Alcotest.test_case "ill-formed rejected" `Quick test_well_formed_bad;
          Alcotest.test_case "projection" `Quick test_projection;
          Alcotest.test_case "equivalence" `Quick test_equivalent;
          Alcotest.test_case "completion" `Quick test_complete;
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "iter and spine" `Quick test_iter_and_spine;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "fig3" `Quick test_transactions_fig3;
          Alcotest.test_case "fig4" `Quick test_transactions_fig4;
          Alcotest.test_case "multiple per process" `Quick
            test_transactions_multi;
          Alcotest.test_case "aborted op not completed" `Quick
            test_aborted_op_not_completed;
          Alcotest.test_case "last write" `Quick test_last_write;
        ] );
      ( "lassos",
        [
          Alcotest.test_case "well-formed unrollings" `Quick
            test_lasso_well_formed;
          Alcotest.test_case "bad lassos rejected" `Quick test_lasso_rejects_bad;
          Alcotest.test_case "infinitary verdicts" `Quick test_lasso_infinite;
          Alcotest.test_case "rotation" `Quick test_lasso_rotate;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig16 shape" `Quick test_fig16_shape;
          Alcotest.test_case "pretty-printing" `Quick test_pretty_smoke;
        ] );
      ( "pretty and ordering",
        [
          Alcotest.test_case "tokens" `Quick test_pretty_tokens;
          Alcotest.test_case "fused rows" `Quick test_pretty_fused_rows;
          Alcotest.test_case "event compare total" `Quick
            test_event_compare_total;
        ] );
      ( "codec",
        [
          Alcotest.test_case "figures round-trip" `Quick
            test_codec_roundtrip_figures;
          Alcotest.test_case "garbage rejected" `Quick
            test_codec_rejects_garbage;
          Alcotest.test_case "comments and blanks" `Quick
            test_codec_comments_and_blanks;
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
        ] );
      ("properties", properties);
    ]
