(* Tests for the real multicore STM runtime (lib/stm): single-domain
   semantics, rollback, and multi-domain stress with invariant checks. *)

module Stm = Tm_stm.Stm

let spawn_all fns = List.map Domain.spawn fns |> List.iter Domain.join

(* ------------------------------------------------------------------ *)
(* Single-domain semantics. *)

let test_basic_read_write () =
  let v = Stm.tvar 1 in
  let r =
    Stm.atomically (fun () ->
        let a = Stm.read v in
        Stm.write v (a + 10);
        Stm.read v)
  in
  Alcotest.(check int) "reads own write" 11 r;
  Alcotest.(check int) "committed" 11 (Stm.read v)

let test_rollback_on_exception () =
  let v = Stm.tvar 0 in
  (try
     Stm.atomically (fun () ->
         Stm.write v 42;
         raise Exit)
   with Exit -> ());
  Alcotest.(check int) "write rolled back" 0 (Stm.read v)

let test_write_outside_rejected () =
  let v = Stm.tvar 0 in
  Alcotest.check_raises "write outside transaction"
    (Invalid_argument "Stm.write outside a transaction") (fun () ->
      Stm.write v 1)

let test_snapshot_read_outside () =
  let v = Stm.tvar 5 in
  Alcotest.(check int) "snapshot read" 5 (Stm.read v);
  Alcotest.(check bool) "not in transaction" false (Stm.in_transaction ())

let test_nesting_flattens () =
  let v = Stm.tvar 0 in
  Stm.atomically (fun () ->
      Alcotest.(check bool) "in transaction" true (Stm.in_transaction ());
      (* Txn_counter.add uses atomically internally: must join us. *)
      Stm.write v 1;
      Stm.atomically (fun () -> Stm.write v (Stm.read v + 1)));
  Alcotest.(check int) "nested writes committed once" 2 (Stm.read v)

let test_two_tvars_consistent () =
  let a = Stm.tvar 1 and b = Stm.tvar 1 in
  Stm.atomically (fun () ->
      Stm.write a 2;
      Stm.write b 2);
  let sa, sb = Stm.atomically (fun () -> (Stm.read a, Stm.read b)) in
  Alcotest.(check (pair int int)) "both updated" (2, 2) (sa, sb)

let test_polymorphic_tvars () =
  let s = Stm.tvar "hello" and l = Stm.tvar [ 1; 2 ] in
  Stm.atomically (fun () ->
      Stm.write s (Stm.read s ^ " world");
      Stm.write l (3 :: Stm.read l));
  Alcotest.(check string) "string tvar" "hello world" (Stm.read s);
  Alcotest.(check (list int)) "list tvar" [ 3; 1; 2 ] (Stm.read l)

(* ------------------------------------------------------------------ *)
(* Data structures: sequential model checks. *)

let test_counter () =
  let c = Tm_stm.Txn_counter.make 0 in
  for _ = 1 to 10 do
    Tm_stm.Txn_counter.incr c
  done;
  Tm_stm.Txn_counter.add c 5;
  Alcotest.(check int) "counter" 15 (Tm_stm.Txn_counter.get c)

let test_list_model =
  QCheck2.Test.make ~count:100 ~name:"txn_list behaves like a set"
    QCheck2.Gen.(list (pair bool (int_bound 20)))
    (fun ops ->
      let l = Tm_stm.Txn_list.make () in
      let model = ref [] in
      List.iter
        (fun (is_add, k) ->
          if Tm_stm.Txn_list.mem l k <> List.mem k !model then
            failwith "mem mismatch";
          if is_add then begin
            let added = Tm_stm.Txn_list.add l k in
            let expected = not (List.mem k !model) in
            if added <> expected then failwith "add mismatch";
            if added then model := k :: !model
          end
          else begin
            let removed = Tm_stm.Txn_list.remove l k in
            let expected = List.mem k !model in
            if removed <> expected then failwith "remove mismatch";
            if removed then model := List.filter (( <> ) k) !model
          end)
        ops;
      Tm_stm.Txn_list.to_list l = List.sort_uniq Int.compare !model)

let test_queue_fifo () =
  let q = Tm_stm.Txn_queue.make () in
  List.iter (Tm_stm.Txn_queue.push q) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "pop 1" (Some 1) (Tm_stm.Txn_queue.pop q);
  Tm_stm.Txn_queue.push q 4;
  Alcotest.(check (option int)) "pop 2" (Some 2) (Tm_stm.Txn_queue.pop q);
  Alcotest.(check (list int)) "rest" [ 3; 4 ] (Tm_stm.Txn_queue.to_list q);
  Alcotest.(check int) "length" 2 (Tm_stm.Txn_queue.length q);
  Alcotest.(check (option int)) "pop 3" (Some 3) (Tm_stm.Txn_queue.pop q);
  Alcotest.(check (option int)) "pop 4" (Some 4) (Tm_stm.Txn_queue.pop q);
  Alcotest.(check (option int)) "empty" None (Tm_stm.Txn_queue.pop q)

let test_stack () =
  let s = Tm_stm.Txn_stack.make () in
  Alcotest.(check (option int)) "empty pop" None (Tm_stm.Txn_stack.pop s);
  Tm_stm.Txn_stack.push s 1;
  Tm_stm.Txn_stack.push s 2;
  Alcotest.(check (option int)) "peek" (Some 2) (Tm_stm.Txn_stack.peek s);
  Alcotest.(check int) "length" 2 (Tm_stm.Txn_stack.length s);
  Alcotest.(check (option int)) "lifo pop" (Some 2) (Tm_stm.Txn_stack.pop s);
  Alcotest.(check (list int)) "rest" [ 1 ] (Tm_stm.Txn_stack.to_list s)

let test_map_model =
  QCheck2.Test.make ~count:100 ~name:"txn_map behaves like a map and stays \
                                      balanced"
    QCheck2.Gen.(list (pair (int_bound 2) (int_bound 30)))
    (fun ops ->
      let m = Tm_stm.Txn_map.make () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (op, k) ->
          match op with
          | 0 ->
              Tm_stm.Txn_map.set m k (k * 10);
              Hashtbl.replace model k (k * 10)
          | 1 ->
              let removed = Tm_stm.Txn_map.remove m k in
              let expected = Hashtbl.mem model k in
              if removed <> expected then failwith "remove mismatch";
              Hashtbl.remove model k
          | _ ->
              let found = Tm_stm.Txn_map.find m k in
              let expected = Hashtbl.find_opt model k in
              if found <> expected then failwith "find mismatch")
        ops;
      let expected_bindings =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
        |> List.sort compare
      in
      Tm_stm.Txn_map.bindings m = expected_bindings
      && Tm_stm.Txn_map.check_balanced m)

let test_map_sequential () =
  let m = Tm_stm.Txn_map.make () in
  for i = 1 to 100 do
    Tm_stm.Txn_map.set m i (i * i)
  done;
  Alcotest.(check int) "cardinal" 100 (Tm_stm.Txn_map.cardinal m);
  Alcotest.(check bool) "balanced after ascending inserts" true
    (Tm_stm.Txn_map.check_balanced m);
  Alcotest.(check (option int)) "find" (Some 49) (Tm_stm.Txn_map.find m 7);
  Alcotest.(check bool) "remove" true (Tm_stm.Txn_map.remove m 7);
  Alcotest.(check (option int)) "gone" None (Tm_stm.Txn_map.find m 7);
  Alcotest.(check bool) "still balanced" true (Tm_stm.Txn_map.check_balanced m)

let test_hashtbl () =
  let h = Tm_stm.Txn_hashtbl.make ~buckets:4 () in
  Tm_stm.Txn_hashtbl.set h 1 "one";
  Tm_stm.Txn_hashtbl.set h 5 "five";
  Tm_stm.Txn_hashtbl.set h 1 "uno";
  Alcotest.(check (option string)) "overwrite" (Some "uno")
    (Tm_stm.Txn_hashtbl.find h 1);
  Alcotest.(check (option string)) "other key" (Some "five")
    (Tm_stm.Txn_hashtbl.find h 5);
  Alcotest.(check int) "length" 2 (Tm_stm.Txn_hashtbl.length h);
  Alcotest.(check bool) "remove" true (Tm_stm.Txn_hashtbl.remove h 1);
  Alcotest.(check bool) "remove again" false (Tm_stm.Txn_hashtbl.remove h 1);
  Alcotest.(check (option string)) "gone" None (Tm_stm.Txn_hashtbl.find h 1)

(* ------------------------------------------------------------------ *)
(* Multicore stress. *)

let ndomains = 4

let test_parallel_counter () =
  let c = Tm_stm.Txn_counter.make 0 in
  let iters = 3000 in
  spawn_all
    (List.init ndomains (fun _ () ->
         for _ = 1 to iters do
           Tm_stm.Txn_counter.incr c
         done));
  Alcotest.(check int) "no lost updates" (ndomains * iters)
    (Tm_stm.Txn_counter.get c)

let test_parallel_bank () =
  let accounts = 8 and initial = 100 in
  let bank = Tm_stm.Txn_bank.make ~accounts ~initial in
  let violations = Atomic.make 0 in
  let workers =
    List.init ndomains (fun d () ->
        let st = ref (d + 1) in
        let rand bound =
          st := (!st * 1103515245) + 12345;
          abs !st mod bound
        in
        for _ = 1 to 2000 do
          let a = rand accounts in
          let b = (a + 1 + rand (accounts - 1)) mod accounts in
          ignore (Tm_stm.Txn_bank.transfer bank ~from_:a ~to_:b ~amount:(1 + rand 5))
        done)
  in
  let checker () =
    for _ = 1 to 200 do
      if Tm_stm.Txn_bank.total bank <> accounts * initial then
        Atomic.incr violations
    done
  in
  spawn_all (checker :: workers);
  Alcotest.(check int) "total balance always invariant" 0
    (Atomic.get violations);
  Alcotest.(check int) "final total" (accounts * initial)
    (Tm_stm.Txn_bank.total bank)

let test_parallel_list () =
  let l = Tm_stm.Txn_list.make () in
  let per = 300 in
  spawn_all
    (List.init ndomains (fun d () ->
         for i = 0 to per - 1 do
           ignore (Tm_stm.Txn_list.add l ((i * ndomains) + d))
         done));
  let contents = Tm_stm.Txn_list.to_list l in
  Alcotest.(check int) "all inserted" (ndomains * per) (List.length contents);
  Alcotest.(check (list int))
    "sorted and complete"
    (List.init (ndomains * per) Fun.id)
    contents

let test_parallel_queue () =
  let q = Tm_stm.Txn_queue.make () in
  let per = 2000 in
  let popped = Array.make ndomains 0 in
  let producers =
    List.init (ndomains / 2) (fun d () ->
        for i = 1 to per do
          Tm_stm.Txn_queue.push q ((d * per) + i)
        done)
  in
  let total_expected = ndomains / 2 * per in
  let taken = Atomic.make 0 in
  let consumers =
    List.init (ndomains / 2) (fun d () ->
        let continue = ref true in
        while !continue do
          match Tm_stm.Txn_queue.pop q with
          | Some _ ->
              popped.(d) <- popped.(d) + 1;
              ignore (Atomic.fetch_and_add taken 1)
          | None -> if Atomic.get taken >= total_expected then continue := false
        done)
  in
  spawn_all (producers @ consumers);
  Alcotest.(check int) "all elements consumed" total_expected
    (Atomic.get taken);
  Alcotest.(check (option int)) "queue drained" None (Tm_stm.Txn_queue.pop q)

let test_parallel_map () =
  let m = Tm_stm.Txn_map.make () in
  let per = 250 in
  spawn_all
    (List.init ndomains (fun d () ->
         for i = 0 to per - 1 do
           Tm_stm.Txn_map.set m ((i * ndomains) + d) d
         done));
  Alcotest.(check int) "all keys present" (ndomains * per)
    (Tm_stm.Txn_map.cardinal m);
  Alcotest.(check bool) "balanced under concurrency" true
    (Tm_stm.Txn_map.check_balanced m);
  Alcotest.(check (list int)) "keys complete"
    (List.init (ndomains * per) Fun.id)
    (List.map fst (Tm_stm.Txn_map.bindings m))

let test_parallel_stack () =
  let s = Tm_stm.Txn_stack.make () in
  let per = 2000 in
  spawn_all
    (List.init ndomains (fun d () ->
         for i = 1 to per do
           Tm_stm.Txn_stack.push s ((d * per) + i)
         done));
  Alcotest.(check int) "nothing lost" (ndomains * per)
    (Tm_stm.Txn_stack.length s);
  let sorted = List.sort Int.compare (Tm_stm.Txn_stack.to_list s) in
  Alcotest.(check bool) "all distinct elements present" true
    (sorted = List.init (ndomains * per) (fun i -> i + 1))

let test_parallel_hashtbl () =
  let h = Tm_stm.Txn_hashtbl.make ~buckets:16 () in
  let per = 500 in
  spawn_all
    (List.init ndomains (fun d () ->
         for i = 0 to per - 1 do
           Tm_stm.Txn_hashtbl.set h ((i * ndomains) + d) d
         done));
  Alcotest.(check int) "all keys present" (ndomains * per)
    (Tm_stm.Txn_hashtbl.length h);
  Alcotest.(check (option int)) "spot check" (Some 1)
    (Tm_stm.Txn_hashtbl.find h (ndomains + 1))

(* The bank hammer with snapshot observers: worker domains fire transfers
   while observer domains repeatedly sum every account *twice inside one
   transaction* — any transaction observing an inconsistent snapshot
   (torn between two commits) would see the two sums differ, or a total
   off the invariant.  This is the opacity claim of the runtime exercised
   under real concurrency. *)
let test_bank_snapshot_consistency () =
  let accounts = 12 and initial = 100 in
  let bank = Tm_stm.Txn_bank.make ~accounts ~initial in
  let expected_total = accounts * initial in
  let workers_done = Atomic.make 0 in
  let nworkers = ndomains in
  let violations = Atomic.make 0 in
  let workers =
    List.init nworkers (fun d () ->
        let st = ref ((d * 7) + 1) in
        let rand bound =
          st := (!st * 1103515245) + 12345;
          abs !st mod bound
        in
        for _ = 1 to 3000 do
          let a = rand accounts in
          let b = (a + 1 + rand (accounts - 1)) mod accounts in
          ignore
            (Tm_stm.Txn_bank.transfer bank ~from_:a ~to_:b ~amount:(1 + rand 7))
        done;
        Atomic.incr workers_done)
  in
  let observers =
    List.init 2 (fun _ () ->
        while Atomic.get workers_done < nworkers do
          let sum1, sum2 =
            Stm.atomically (fun () ->
                let sum () =
                  let acc = ref 0 in
                  for i = 0 to accounts - 1 do
                    acc := !acc + Tm_stm.Txn_bank.balance bank i
                  done;
                  !acc
                in
                let s1 = sum () in
                let s2 = sum () in
                (s1, s2))
          in
          if sum1 <> sum2 then Atomic.incr violations;
          if sum1 <> expected_total then Atomic.incr violations
        done)
  in
  spawn_all (workers @ observers);
  Alcotest.(check int) "no transaction saw an inconsistent snapshot" 0
    (Atomic.get violations);
  Alcotest.(check int) "total balance invariant after the storm"
    expected_total (Tm_stm.Txn_bank.total bank);
  Alcotest.(check bool) "every account non-negative" true
    (List.for_all
       (fun i -> Tm_stm.Txn_bank.balance bank i >= 0)
       (List.init accounts Fun.id))

(* Model-based sequential check of the core runtime: random transactional
   programs against a reference association list, including mid-program
   user aborts (exception) whose writes must all vanish. *)
let test_stm_model =
  QCheck2.Test.make ~count:150 ~name:"Stm behaves like an atomic store"
    QCheck2.Gen.(list (triple (int_bound 3) (int_bound 4) (int_bound 9)))
    (fun programs ->
      let tvars = Array.init 5 (fun _ -> Stm.tvar 0) in
      let model = Array.make 5 0 in
      let exception User_abort in
      List.iter
        (fun (kind, x, v) ->
          match kind with
          | 0 ->
              Stm.atomically (fun () -> Stm.write tvars.(x) v);
              model.(x) <- v
          | 1 ->
              let got = Stm.atomically (fun () -> Stm.read tvars.(x)) in
              if got <> model.(x) then failwith "read mismatch"
          | 2 ->
              (* A transaction that writes two t-variables then aborts by
                 exception: nothing may survive. *)
              (try
                 Stm.atomically (fun () ->
                     Stm.write tvars.(x) (v + 100);
                     Stm.write tvars.((x + 1) mod 5) (v + 200);
                     raise User_abort)
               with User_abort -> ())
          | _ ->
              Stm.atomically (fun () ->
                  Stm.write tvars.(x) (Stm.read tvars.(x) + v));
              model.(x) <- model.(x) + v)
        programs;
      Array.for_all2 ( = ) model (Array.map Stm.read tvars))

(* ------------------------------------------------------------------ *)
(* The global-lock core behind the facade: same API, no aborts ever. *)

let under_lock f () = Stm.with_algo Stm.Algo.Global_lock f

let test_lock_stm_basic =
  under_lock (fun () ->
      let v = Stm.tvar 1 in
      let r =
        Stm.atomically (fun () ->
            Stm.write v (Stm.read v + 10);
            Stm.read v)
      in
      Alcotest.(check int) "reads own write" 11 r;
      Alcotest.(check int) "committed" 11 (Stm.read v);
      Alcotest.check_raises "write outside transaction"
        (Invalid_argument "Stm.write outside a transaction") (fun () ->
          Stm.write v 0))

let test_lock_stm_every_txn_commits =
  under_lock (fun () ->
      let c0, a0 = Stm.stats () in
      let v = Stm.tvar 0 in
      for _ = 1 to 50 do
        Stm.atomically (fun () -> Stm.write v (Stm.read v + 1))
      done;
      let c1, a1 = Stm.stats () in
      Alcotest.(check int) "fifty increments" 50 (Stm.read v);
      Alcotest.(check bool) "every transaction commits" true (c1 - c0 >= 50);
      Alcotest.(check int) "no aborts exist" 0 (a1 - a0))

let test_lock_stm_parallel_counter =
  under_lock (fun () ->
      let v = Stm.tvar 0 in
      let iters = 3000 in
      spawn_all
        (List.init ndomains (fun _ () ->
             for _ = 1 to iters do
               Stm.atomically (fun () -> Stm.write v (Stm.read v + 1))
             done));
      Alcotest.(check int) "no lost updates" (ndomains * iters) (Stm.read v))

let test_stats_move () =
  let before_c, _ = Stm.stats () in
  let v = Stm.tvar 0 in
  Stm.atomically (fun () -> Stm.write v 1);
  let after_c, _ = Stm.stats () in
  Alcotest.(check bool) "commit counted" true (after_c > before_c)

(* ------------------------------------------------------------------ *)
(* The algorithm zoo: every core behind [Stm.Algo] must pass the same
   semantics, the same snapshot-consistency stress, and keep its
   telemetry/chaos seam labels truthful. *)

let test_zoo_semantics () =
  List.iter
    (fun a ->
      let name = Stm.Algo.name a in
      Stm.with_algo a (fun () ->
          let v = Stm.tvar 1 in
          let r =
            Stm.atomically (fun () ->
                Stm.write v (Stm.read v + 10);
                Stm.read v)
          in
          Alcotest.(check int) (name ^ ": reads own write") 11 r;
          Alcotest.(check int) (name ^ ": committed") 11 (Stm.read v);
          (try
             Stm.atomically (fun () ->
                 Stm.write v 99;
                 raise Exit)
           with Exit -> ());
          Alcotest.(check int) (name ^ ": rollback on exception") 11 (Stm.read v);
          let s = Stm.tvar "x" and l = Stm.tvar [ 1 ] in
          Stm.atomically (fun () ->
              Stm.write s (Stm.read s ^ "y");
              Stm.write l (2 :: Stm.read l);
              (* flat nesting must join the enclosing transaction *)
              Stm.atomically (fun () -> Stm.write l (3 :: Stm.read l)));
          Alcotest.(check string) (name ^ ": polymorphic string") "xy"
            (Stm.read s);
          Alcotest.(check (list int)) (name ^ ": nested flattens") [ 3; 2; 1 ]
            (Stm.read l)))
    Stm.Algo.all

let zoo_parallel_counter a () =
  Stm.with_algo a (fun () ->
      let v = Stm.tvar 0 in
      let iters = 1500 in
      spawn_all
        (List.init ndomains (fun _ () ->
             for _ = 1 to iters do
               Stm.atomically (fun () -> Stm.write v (Stm.read v + 1))
             done));
      Alcotest.(check int)
        (Stm.Algo.name a ^ ": no lost updates")
        (ndomains * iters) (Stm.read v))

(* DSTM installs a t-variable's locator on its first touch.  Two
   domains race every first touch — each increments the same fresh
   t-variables in the same order, released together — and no increment
   may be lost to the install. *)
let test_dstm_first_touch_race () =
  Stm.with_algo Stm.Algo.Dstm (fun () ->
      let n = 2_000 in
      for _ = 1 to 5 do
        let tvs = Array.init n (fun _ -> Stm.tvar 0) in
        let ready = Atomic.make 0 in
        spawn_all
          (List.init 2 (fun _ () ->
               Atomic.incr ready;
               while Atomic.get ready < 2 do
                 Domain.cpu_relax ()
               done;
               Array.iter
                 (fun tv ->
                   Stm.atomically (fun () -> Stm.write tv (Stm.read tv + 1)))
                 tvs));
        Alcotest.(check int) "every increment counted" (2 * n)
          (Array.fold_left (fun acc tv -> acc + Stm.read tv) 0 tvs)
      done)

(* The opacity stress of [test_bank_snapshot_consistency], generalized
   over the zoo: workers fire transfers while an observer sums every
   account twice inside one transaction — a torn snapshot shows up as
   the two sums differing or the invariant breaking. *)
let zoo_bank_snapshot a () =
  Stm.with_algo a (fun () ->
      let accounts = 8 and initial = 50 in
      let bank = Tm_stm.Txn_bank.make ~accounts ~initial in
      let expected_total = accounts * initial in
      let workers_done = Atomic.make 0 in
      let violations = Atomic.make 0 in
      let workers =
        List.init (ndomains - 1) (fun d () ->
            let st = ref ((d * 11) + 3) in
            let rand bound =
              st := (!st * 1103515245) + 12345;
              abs !st mod bound
            in
            for _ = 1 to 1200 do
              let x = rand accounts in
              let y = (x + 1 + rand (accounts - 1)) mod accounts in
              ignore
                (Tm_stm.Txn_bank.transfer bank ~from_:x ~to_:y
                   ~amount:(1 + rand 5))
            done;
            Atomic.incr workers_done)
      in
      let observer () =
        while Atomic.get workers_done < ndomains - 1 do
          let s1, s2 =
            Stm.atomically (fun () ->
                let sum () =
                  let acc = ref 0 in
                  for i = 0 to accounts - 1 do
                    acc := !acc + Tm_stm.Txn_bank.balance bank i
                  done;
                  !acc
                in
                let a = sum () in
                let b = sum () in
                (a, b))
          in
          if s1 <> s2 || s1 <> expected_total then Atomic.incr violations
        done
      in
      spawn_all (observer :: workers);
      Alcotest.(check int)
        (Stm.Algo.name a ^ ": no inconsistent snapshot")
        0 (Atomic.get violations);
      Alcotest.(check int)
        (Stm.Algo.name a ^ ": invariant after the storm")
        expected_total
        (Tm_stm.Txn_bank.total bank))

(* Named regression: DSTM abort-others stealing must not livelock.  Two
   domains write the same two t-variables in opposite orders, the
   adversarial pattern where each transaction steals the other's
   ownership and both could abort each other forever.  The facade's
   randomized backoff breaks the symmetry; both workers must finish
   with no lost updates. *)
let test_dstm_steal_livelock () =
  Stm.with_algo Stm.Algo.Dstm (fun () ->
      let a = Stm.tvar 0 and b = Stm.tvar 0 in
      let iters = 1000 in
      spawn_all
        [
          (fun () ->
            for _ = 1 to iters do
              Stm.atomically (fun () ->
                  Stm.write a (Stm.read a + 1);
                  Stm.write b (Stm.read b + 1))
            done);
          (fun () ->
            for _ = 1 to iters do
              Stm.atomically (fun () ->
                  Stm.write b (Stm.read b + 1);
                  Stm.write a (Stm.read a + 1))
            done);
        ];
      Alcotest.(check (pair int int))
        "mutual stealers both complete with no lost updates"
        (2 * iters, 2 * iters)
        (Stm.read a, Stm.read b))

(* Named regression: NOrec value-based validation.  Two traps in one:
   (a) t-variables may hold closures (txn_map nodes carry comparison
   functions), where structural equality raises — validation must use
   physical equality; (b) a flipper swaps two integers back and forth,
   the ABA pattern value-based validation admits by design — admitting
   it must still never show an observer a torn (sum <> invariant)
   snapshot. *)
let test_norec_value_validation_aba () =
  Stm.with_algo Stm.Algo.Norec (fun () ->
      let f0 x = x + 1 and f1 x = x * 2 in
      let fv = Stm.tvar f0 in
      let a = Stm.tvar 0 and b = Stm.tvar 1 in
      (* invariant: a + b = 1 *)
      let stop = Atomic.make false in
      let violations = Atomic.make 0 in
      let flipper () =
        for i = 1 to 4000 do
          Stm.atomically (fun () ->
              let x = Stm.read a in
              Stm.write a (Stm.read b);
              Stm.write b x;
              Stm.write fv (if i land 1 = 0 then f0 else f1))
        done;
        Atomic.set stop true
      in
      let observer () =
        while not (Atomic.get stop) do
          let s =
            Stm.atomically (fun () ->
                let g = Stm.read fv in
                ignore (g 1);
                Stm.read a + Stm.read b)
          in
          if s <> 1 then Atomic.incr violations
        done
      in
      spawn_all [ flipper; observer ];
      Alcotest.(check int) "no torn snapshot under value validation" 0
        (Atomic.get violations);
      Alcotest.(check int) "invariant holds at the end" 1
        (Stm.read a + Stm.read b))

(* ------------------------------------------------------------------ *)
(* The observation seam: one vocabulary, one table per core. *)

module Obs = Stm.Obs

(* Spin until [cond] holds or the budget (about a second) runs out. *)
let spin_until cond =
  let n = ref 50_000_000 in
  while (not (cond ())) && !n > 0 do
    Domain.cpu_relax ();
    decr n
  done

(* The set of sites reached, from any domain. *)
let rec add_site seen site =
  let old = Atomic.get seen in
  if
    (not (List.mem site old))
    && not (Atomic.compare_and_set seen old (site :: old))
  then add_site seen site

(* The sites the facade reaches for every core. *)
let facade_sites =
  [
    Obs.Begin;
    Obs.Commit;
    Obs.Abort Obs.Conflicted;
    Obs.Abort Obs.Retried;
    Obs.Abort Obs.Raised;
    Obs.Backoff;
  ]

(* Drive one core through every site it has: an uncontended
   read-modify-write, a retry, an exception, slot 0 holding its commit
   at [Publish] while slot 1 writes (then reads) what it holds, slot 1
   validating a read slot 0 has since overwritten, and two-domain
   contention.  Returns the sites reached. *)
let reach_sites algo =
  let seen = Atomic.make [] in
  let holding = Atomic.make false and held = Atomic.make false in
  let peer_conflicts = Atomic.make 0 in
  let sub =
    Obs.subscribe (fun site _ _ ->
        add_site seen site;
        (match site with
        | Obs.Conflict _ when Obs.self () = 1 -> Atomic.incr peer_conflicts
        | Obs.Publish
          when Obs.self () = 0 && Atomic.compare_and_set holding true false ->
            Atomic.set held true;
            spin_until (fun () -> Atomic.get peer_conflicts > 0)
        | _ -> ());
        Obs.Proceed)
  in
  let as_slot d f () =
    Obs.set_self d;
    f ();
    Obs.set_self (-1)
  in
  (* Slot 0 commits a write to [x] and holds at [Publish] until slot 1,
     running [peer] on [x], has conflicted. *)
  let held_by_0 peer =
    let x = Stm.tvar 0 in
    Atomic.set peer_conflicts 0;
    Atomic.set held false;
    Atomic.set holding true;
    let a =
      Domain.spawn
        (as_slot 0 (fun () -> Stm.atomically (fun () -> Stm.write x 1)))
    in
    spin_until (fun () -> Atomic.get held);
    as_slot 1 (fun () -> peer x) ();
    Domain.join a
  in
  (* Slot 1 reads [x], slot 0 commits [x], slot 1 reads on and writes. *)
  let stale_read () =
    let x = Stm.tvar 0 and y = Stm.tvar 0 and z = Stm.tvar 0 in
    let read_x = Atomic.make false and wrote_x = Atomic.make false in
    let a =
      Domain.spawn
        (as_slot 0 (fun () ->
             spin_until (fun () -> Atomic.get read_x);
             Stm.atomically (fun () -> Stm.write x 1);
             Atomic.set wrote_x true))
    in
    as_slot 1
      (fun () ->
        Stm.atomically (fun () ->
            let v = Stm.read x in
            (* tmstatic: allow txn-purity *)
            Atomic.set read_x true;
            spin_until (fun () -> Atomic.get wrote_x);
            Stm.write z (v + Stm.read y)))
      ();
    Domain.join a
  in
  Fun.protect
    ~finally:(fun () -> Obs.unsubscribe sub)
    (fun () ->
      Stm.with_algo algo (fun () ->
          let v = Stm.tvar 0 in
          Stm.atomically (fun () -> Stm.write v (Stm.read v + 1));
          Stm.atomically (fun () ->
              if not (List.mem (Obs.Abort Obs.Retried) (Atomic.get seen)) then
                Stm.retry ());
          (try Stm.atomically (fun () -> raise Exit) with Exit -> ());
          held_by_0 (fun x -> Stm.atomically (fun () -> Stm.write x 2));
          held_by_0 (fun x -> Stm.atomically (fun () -> ignore (Stm.read x)));
          (* Under the serializer slot 1's open transaction would keep
             slot 0 from committing at all. *)
          if algo <> Stm.Algo.Global_lock then stale_read ();
          let hot = Array.init 2 (fun _ -> Stm.tvar 0) in
          spawn_all
            (List.init 2 (fun d ->
                 as_slot d (fun () ->
                     for _ = 1 to 5_000 do
                       Stm.atomically (fun () ->
                           let a = Stm.read hot.(0) in
                           let b = Stm.read hot.(1) in
                           Stm.write hot.(0) (a + 1);
                           Stm.write hot.(1) (b + 1))
                     done)))));
  Atomic.get seen

(* Every site a core reaches is in its one [Algo.sites] table, and every
   site the table announces is reached — the labels telemetry, chaos
   plans, blame graphs and traces build on never lie about the
   mechanism.  The facade adds its own sites for every core, and the
   load-bearing absences are pinned by name. *)
let sites_truthful algo () =
  let name = Stm.Algo.name algo in
  let seen = reach_sites algo in
  let core = List.filter (fun s -> not (List.mem s facade_sites)) seen in
  let labels l = List.sort compare (List.map Obs.site_label l) in
  Alcotest.(check (list string))
    (name ^ ": reached sites = Algo.sites")
    (labels (Stm.Algo.sites algo))
    (labels core);
  Alcotest.(check (list string))
    (name ^ ": the facade's sites")
    (labels facade_sites)
    (labels (List.filter (fun s -> List.mem s facade_sites) seen));
  let reaches s = List.mem s seen in
  let expect label b = Alcotest.(check bool) (name ^ ": " ^ label) b in
  expect "reaches Read" true (reaches Obs.Read);
  expect "reaches Publish" true (reaches Obs.Publish);
  expect "reaches Lock" (algo <> Stm.Algo.Norec) (reaches Obs.Lock);
  expect "reaches Validate" (algo <> Stm.Algo.Global_lock)
    (reaches Obs.Validate);
  expect "steals" (algo = Stm.Algo.Dstm)
    (reaches (Obs.Conflict Obs.Stolen));
  expect "per-location lock conflicts" (algo = Stm.Algo.Tl2)
    (reaches (Obs.Conflict Obs.Lock_busy)
    || reaches (Obs.Conflict Obs.Read_conflict));
  expect "waits out a serialized lock"
    (algo = Stm.Algo.Global_lock || algo = Stm.Algo.Norec)
    (reaches (Obs.Conflict Obs.Wait_budget))

(* The sites one solo transaction delivers, per core: all of them, then
   those a chaos plan can act on (the bench's P7 divisor), those the
   telemetry probe times (P8) and those the blame graph takes (P10).
   These counts are the hardware-independent half of the seam costs. *)
let fault_site = function
  | Obs.Read | Obs.Lock | Obs.Validate | Obs.Publish | Obs.Commit -> true
  | _ -> false

let probe_site = function
  | Obs.Begin | Obs.Abort _ -> true
  | site -> fault_site site

let blame_site = function Obs.Conflict _ | Obs.Commit -> true | _ -> false

let deliveries algo body =
  Stm.with_algo algo (fun () ->
      let v = Stm.tvar 0 in
      let seen = Atomic.make [] in
      let sub =
        Obs.subscribe (fun site _ _ ->
            Atomic.set seen (site :: Atomic.get seen);
            Obs.Proceed)
      in
      Fun.protect
        ~finally:(fun () -> Obs.unsubscribe sub)
        (fun () -> Stm.atomically (fun () -> body v));
      let count p = List.length (List.filter p (Atomic.get seen)) in
      [ count (Fun.const true); count fault_site; count probe_site;
        count blame_site ])

let test_counted_deliveries () =
  List.iter
    (fun (algo, rmw, read_only) ->
      let name = Stm.Algo.name algo in
      Alcotest.(check (list int))
        (name ^ ": increment all/fault/probe/blame")
        rmw
        (deliveries algo (fun v -> Stm.write v (Stm.read v + 1)));
      Alcotest.(check int) (name ^ ": read-only all") read_only
        (List.hd (deliveries algo (fun v -> ignore (Stm.read v)))))
    [
      (Stm.Algo.Tl2, [ 8; 5; 6; 1 ], 3);
      (Stm.Algo.Global_lock, [ 8; 4; 5; 1 ], 6);
      (Stm.Algo.Dstm, [ 7; 5; 6; 1 ], 5);
      (Stm.Algo.Norec, [ 7; 4; 5; 1 ], 3);
    ]

(* A contended run for the isolation tests below: conflicts, aborts and
   commits on two domains. *)
let contend () =
  let hot = Stm.tvar 0 in
  spawn_all
    (List.init 2 (fun _ () ->
         for _ = 1 to 2_000 do
           Stm.atomically (fun () -> Stm.write hot (Stm.read hot + 1))
         done))

(* A subscriber counting the sites it sees; its caller unsubscribes. *)
let counting hits =
  (* tmstatic: allow armed-leak *)
  Obs.subscribe (fun _ _ _ ->
      Atomic.incr hits;
      Obs.Proceed)

(* With only the trace subscribed, a chaos plan subscribed and removed
   again is never consulted and a removed blame graph sees nothing. *)
let test_trace_alone () =
  let chaos_hits = Atomic.make 0 in
  let crash_all =
    Obs.subscribe (fun _ _ _ ->
        Atomic.incr chaos_hits;
        Obs.Crash)
  in
  let g =
    Tm_telemetry.Blame_graph.create (Tm_telemetry.Registry.create ())
      ~domains:2
  in
  let blame = Obs.subscribe (Tm_telemetry.Blame_graph.subscriber g) in
  Obs.unsubscribe crash_all;
  Obs.unsubscribe blame;
  Stm.Trace.start ();
  Fun.protect ~finally:Stm.Trace.stop contend;
  Alcotest.(check bool) "the trace recorded" true (Stm.Trace.events () <> []);
  Alcotest.(check int) "removed plan never consulted" 0
    (Atomic.get chaos_hits);
  Alcotest.(check int) "removed blame graph sees nothing" 0
    (Tm_telemetry.Blame_graph.clock g)

(* With only a chaos plan subscribed, the trace records nothing. *)
let test_chaos_alone () =
  let consulted = Atomic.make 0 in
  Stm.Trace.start ();
  Stm.Trace.stop ();
  let plan =
    Obs.subscribe (fun _ _ _ ->
        Atomic.incr consulted;
        Obs.Stall 1)
  in
  Fun.protect ~finally:(fun () -> Obs.unsubscribe plan) contend;
  Alcotest.(check bool) "the plan was consulted" true
    (Atomic.get consulted > 0);
  Alcotest.(check int) "the trace ring stays empty" 0
    (List.length (Stm.Trace.events ()));
  Alcotest.(check int) "nothing emitted" 0 (Stm.Trace.emitted ())

(* Named regression: [Stm.recover] must drop every subscriber but a
   running trace session before releasing core-global lock state, and
   it must be idempotent — recover twice, then a clean commit.  A plan
   that crashes every transaction is the sharpest probe: if recover
   left it subscribed, the commit below would die. *)
let test_recover_keeps_only_trace () =
  let v = Stm.tvar 0 in
  let blame_hits = Atomic.make 0 and tel_hits = Atomic.make 0 in
  let _blame = counting blame_hits and _tel = counting tel_hits in
  let _plan = Obs.subscribe (fun _ _ _ -> Obs.Crash) in
  Stm.Trace.start ();
  Stm.recover ();
  Stm.recover ();
  Stm.atomically (fun () -> Stm.write v (Stm.read v + 1));
  Alcotest.(check int) "clean commit after double recover" 1 (Stm.read v);
  Alcotest.(check int) "blame subscriber dropped" 0 (Atomic.get blame_hits);
  Alcotest.(check int) "tel subscriber dropped" 0 (Atomic.get tel_hits);
  Alcotest.(check bool) "a trace session survives recover" true
    (Stm.Trace.is_on ());
  Stm.Trace.stop ();
  Alcotest.(check bool) "the surviving session traced the commit" true
    (List.exists
       (fun (e : Tm_trace.Trace_event.t) ->
         e.Tm_trace.Trace_event.args
         = [ ("outcome", Tm_trace.Trace_event.Str "commit") ])
       (Stm.Trace.events ()));
  Alcotest.(check bool) "disarmed once the trace stops" false
    (Atomic.get Tm_stm.Stm_core.Obs.armed)

(* While nothing is subscribed, the seam must be inert: the flag down,
   no subscriber calls, [self] at its default. *)
let test_disarmed_inert () =
  let v = Stm.tvar 0 in
  let armed () = Atomic.get Tm_stm.Stm_core.Obs.armed in
  Alcotest.(check bool) "starts disarmed" false (armed ());
  Alcotest.(check int) "self defaults to unknown" (-1) (Obs.self ());
  let hits = Atomic.make 0 in
  let sub = counting hits in
  Alcotest.(check bool) "a subscriber arms" true (armed ());
  Obs.unsubscribe sub;
  Alcotest.(check bool) "the last unsubscribe disarms" false (armed ());
  for _ = 1 to 100 do
    Stm.atomically (fun () -> Stm.write v (Stm.read v + 1))
  done;
  Alcotest.(check int) "no sites while disarmed" 0 (Atomic.get hits)

(* Armed, single domain, no contention: the commit site carries the
   slot bound by [set_self]. *)
let test_commit_carries_slot () =
  let v = Stm.tvar 0 in
  let commits = Atomic.make 0 and conflicts = Atomic.make 0 in
  let slot_seen = Atomic.make (-2) in
  Alcotest.(check int) "self defaults to unknown" (-1) (Obs.self ());
  let sub =
    Obs.subscribe (fun site _ _ ->
        (match site with
        | Obs.Commit ->
            Atomic.set slot_seen (Obs.self ());
            Atomic.incr commits
        | Obs.Conflict _ -> Atomic.incr conflicts
        | _ -> ());
        Obs.Proceed)
  in
  Obs.set_self 7;
  for _ = 1 to 50 do
    Stm.atomically (fun () -> Stm.write v (Stm.read v + 1))
  done;
  Obs.set_self (-1);
  Obs.unsubscribe sub;
  Alcotest.(check int) "one commit site per commit" 50 (Atomic.get commits);
  Alcotest.(check int) "no conflicts uncontended" 0 (Atomic.get conflicts);
  Alcotest.(check int) "commit carries the bound slot" 7
    (Atomic.get slot_seen)

(* The same run through the blame graph's subscriber: every commit
   moves the bound slot's progress watermark and nothing else. *)
let test_progress_watermark () =
  let module Bg = Tm_telemetry.Blame_graph in
  let v = Stm.tvar 0 in
  let g = Bg.create (Tm_telemetry.Registry.create ()) ~domains:2 in
  let sub = Obs.subscribe (Bg.subscriber g) in
  Obs.set_self 1;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_self (-1);
      Obs.unsubscribe sub)
    (fun () ->
      for _ = 1 to 50 do
        Stm.atomically (fun () -> Stm.write v (Stm.read v + 1))
      done);
  Alcotest.(check int) "one watermark tick per commit" 50 (Bg.commits g 1);
  Alcotest.(check int) "other slots untouched" 0 (Bg.commits g 0);
  Alcotest.(check int) "last commit at the clock" (Bg.clock g)
    (Bg.last_commit g 1);
  Alcotest.(check (list (triple int int int)))
    "no blame edges uncontended" [] (Bg.edges g)

(* A plan slot must fit the vlock word's slot bits. *)
let test_set_self_bound () =
  let max_slot = (1 lsl Tm_stm.Stm_core.Obs.slot_bits) - 2 in
  List.iter
    (fun s ->
      match Obs.set_self s with
      | () -> Alcotest.failf "set_self %d accepted" s
      | exception Invalid_argument _ -> ())
    [ -2; max_slot + 1; max_int ];
  Obs.set_self max_slot;
  Alcotest.(check int) "the largest slot binds" max_slot (Obs.self ());
  Obs.set_self (-1);
  Alcotest.(check int) "unknown binds" (-1) (Obs.self ())

(* TL2 keeps no owner word: a conflict's other party is decoded from the
   vlock word.  Slot 3 holds its commit of [x] at [Publish], so its
   lock is held: a peer's commit of [x] and a peer's read of [x] must
   both name slot 3.  Then slot 5 commits [x] under a reader of [x]:
   the reader's validation must name slot 5, the last committer.  A
   disarmed commit leaves the word naming nobody. *)
let test_tl2_owner_from_vlock () =
  let module C = Tm_stm.Stm_core in
  let module T = Tm_stm.Stm_tl2 in
  let x = C.tvar 0 and z = C.tvar 0 in
  let commit_x v () =
    let t = T.begin_ () in
    T.write t x v;
    T.commit t
  in
  let conflicts = ref [] in
  let holding = Atomic.make true and held = Atomic.make false in
  let go = Atomic.make false in
  let sub =
    Obs.subscribe (fun site a b ->
        (match site with
        | Obs.Conflict c when Obs.self () = 1 ->
            conflicts := (Obs.cause_label c, a, b) :: !conflicts
        | Obs.Publish
          when Obs.self () = 3 && Atomic.compare_and_set holding true false ->
            Atomic.set held true;
            spin_until (fun () -> Atomic.get go)
        | _ -> ());
        Obs.Proceed)
  in
  let as_slot d f () =
    Obs.set_self d;
    Fun.protect ~finally:(fun () -> Obs.set_self (-1)) f
  in
  let conflicted f =
    match f () with () -> false | exception C.Conflict -> true
  in
  Fun.protect
    ~finally:(fun () -> Obs.unsubscribe sub)
    (as_slot 1 (fun () ->
         let holder = Domain.spawn (as_slot 3 (commit_x 1)) in
         spin_until (fun () -> Atomic.get held);
         Alcotest.(check bool) "the peer's commit finds the lock busy" true
           (conflicted (commit_x 2));
         Alcotest.(check bool) "the peer's read finds it locked" true
           (conflicted (fun () -> ignore (T.read (T.begin_ ()) x)));
         Atomic.set go true;
         Domain.join holder;
         Alcotest.(check bool) "the reader fails validation" true
           (conflicted (fun () ->
                let t = T.begin_ () in
                ignore (T.read t x);
                Domain.join (Domain.spawn (as_slot 5 (commit_x 3)));
                T.write t z 1;
                T.commit t));
         Alcotest.(check int) "published by slot 5" 5
           (T.owner_of (Atomic.get x.C.vlock))));
  Alcotest.(check (list (triple string int int)))
    "each conflict names the vlock's owner"
    [
      ("lock-busy", 3, x.C.id);
      ("read-conflict", 3, x.C.id);
      ("validation", 5, x.C.id);
    ]
    (List.rev !conflicts);
  commit_x 4 ();
  Alcotest.(check int) "a disarmed commit carries no slot" (-1)
    (T.owner_of (Atomic.get x.C.vlock))

(* A failed validation names the peer whose commit it missed, never the
   committer, though the committer holds the lock on what it read and
   then wrote.  Slot 0 reads a t-variable, slot 1 commits it, and slot 0
   writes it and commits: once at once after the read (checked by the
   lock slot 0 takes) and once with a read of [y] in between (checked
   against the word that lock replaced).  Both must name slot 1. *)
let test_tl2_validation_names_rival () =
  let module C = Tm_stm.Stm_core in
  let module T = Tm_stm.Stm_tl2 in
  let conflicts = ref [] in
  let sub =
    Obs.subscribe (fun site a b ->
        (match site with
        | Obs.Conflict c when Obs.self () = 0 ->
            conflicts := (Obs.cause_label c, a, b) :: !conflicts
        | _ -> ());
        Obs.Proceed)
  in
  let as_slot d f () =
    Obs.set_self d;
    Fun.protect ~finally:(fun () -> Obs.set_self (-1)) f
  in
  let commit_1 x () =
    let t = T.begin_ () in
    T.write t x 5;
    T.commit t
  in
  let stale_write x between =
    let t = T.begin_ () in
    let v = T.read t x in
    Domain.join (Domain.spawn (as_slot 1 (commit_1 x)));
    between t;
    T.write t x (v + 1);
    match T.commit t with () -> false | exception C.Conflict -> true
  in
  let x = C.tvar 0 and x' = C.tvar 0 and y = C.tvar 0 in
  Fun.protect
    ~finally:(fun () -> Obs.unsubscribe sub)
    (as_slot 0 (fun () ->
         Alcotest.(check bool) "read, then written at once: conflict" true
           (stale_write x ignore);
         Alcotest.(check bool) "read, read y, then written: conflict" true
           (stale_write x' (fun t -> ignore (T.read t y)))));
  Alcotest.(check (list (triple string int int)))
    "each validation conflict names slot 1"
    [ ("validation", 1, x.C.id); ("validation", 1, x'.C.id) ]
    (List.rev !conflicts)

(* ------------------------------------------------------------------ *)
(* Read and write sets as data: the write-back cores keep their sets in
   per-domain arrays reused by every transaction. *)

(* Minor-heap words per call of [f] on this domain, after a warm-up that
   grows the per-domain sets to their working size (they never
   shrink).  Allocation is deterministic, so the gates below hold on
   any number of cores. *)
let words_per f =
  for _ = 1 to 100 do
    f ()
  done;
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let check_words msg expected got =
  if Float.abs (got -. expected) > 0.01 then
    Alcotest.failf "%s: expected %.2f words, got %.2f" msg expected got

let test_tl2_read_allocates_nothing () =
  Stm.with_algo Stm.Algo.Tl2 (fun () ->
      let tvs = Array.init 64 (fun i -> Stm.tvar i) in
      let reads k () =
        Stm.atomically (fun () ->
            for i = 0 to k - 1 do
              ignore (Sys.opaque_identity (Stm.read tvs.(i)))
            done)
      in
      let r1 = words_per (reads 1) and r64 = words_per (reads 64) in
      check_words "64 reads cost what 1 read costs" r1 r64;
      check_words "words per extra read" 0. ((r64 -. r1) /. 63.))

(* A parasite re-reads one t-variable forever inside one transaction.
   Re-reading the read set's last entry must add nothing to it: in a
   fresh domain (empty per-domain sets), 100,000 re-reads allocate
   under 1,000 words, counting the major heap that large arrays go to. *)
let rereads_allocate_nothing algo () =
  Stm.with_algo algo (fun () ->
      let words =
        Domain.join
          (Domain.spawn (fun () ->
               let tv = Stm.tvar 0 in
               let allocated () =
                 let minor, promoted, major = Gc.counters () in
                 minor +. major -. promoted
               in
               let w0 = allocated () in
               Stm.atomically (fun () ->
                   for _ = 1 to 100_000 do
                     ignore (Sys.opaque_identity (Stm.read tv))
                   done);
               allocated () -. w0))
      in
      if words >= 1000. then
        Alcotest.failf "%s: 100,000 re-reads allocate %.0f words"
          (Stm.Algo.name algo) words)

(* A fresh t-variable is 17 words: the record, three atomics and the
   type witness.  The locator sentinel all of them share is counted
   out, as is the array holding them. *)
let test_tvar_words () =
  let n = 1000 in
  let reach x = Obj.reachable_words (Obj.repr x) in
  let tvs = Array.init n (fun i -> Stm.tvar i) in
  let shared = reach Tm_stm.Stm_core.untouched + reach (Array.make n ()) in
  let per = float_of_int (reach tvs - shared) /. float_of_int n in
  if per > 17. then Alcotest.failf "%.2f words per t-variable, more than 17" per

(* Words per extra t-variable, at most, when a transaction writes it,
   reads it and then writes it at once, and rewrites one t-variable.
   A first write costs one entry block (3 words) and a rewrite nothing;
   TL2 moves a read-then-written t-variable out of its read set into
   that entry, and the global lock keeps no read set, so there a read
   adds nothing to the write.  NOrec's read-set entry is a block of its
   own (3 words).  DSTM's write also installs a locator around a boxed
   value (5 + 3 words), and its rewrite boxes the new value. *)
let write_bounds = function
  | Stm.Algo.Tl2 | Stm.Algo.Global_lock -> (3., 3., 0.)
  | Stm.Algo.Norec -> (3., 6., 0.)
  | Stm.Algo.Dstm -> (11., 11., 3.)

let write_allocation algo () =
  Stm.with_algo algo (fun () ->
      let name = Stm.Algo.name algo in
      let tvs = Array.init 64 (fun i -> Stm.tvar i) in
      let run k f () =
        Stm.atomically (fun () ->
            for i = 0 to k - 1 do
              f i
            done)
      in
      let write i = Stm.write tvs.(i) i in
      let read_write i = Stm.write tvs.(i) (Stm.read tvs.(i) + 1) in
      let rewrite i = Stm.write tvs.(0) i in
      let check what f bound =
        let per = (words_per (run 64 f) -. words_per (run 1 f)) /. 63. in
        if per > bound then
          Alcotest.failf "%s: %.2f words per extra %s, more than %.0f" name
            per what bound
      in
      let w, rw, re = write_bounds algo in
      check "write" write w;
      check "read-then-write" read_write rw;
      check "rewrite" rewrite re)

(* Increment [tv] in a transaction on a second domain, so the
   transaction under test sees it as a foreign commit. *)
let bump tv =
  Domain.join
    (Domain.spawn (fun () ->
         Stm.atomically (fun () -> Stm.write tv (Stm.read tv + 1))))

(* A transaction reads [x], a peer on another domain commits [x + 1],
   and the transaction writes [x + 1]: its commit must abort, and the
   peer's value must survive.  TL2 checks a read written at once only
   when its commit locks the t-variable.  Under the global lock the
   peer would wait for the transaction instead. *)
let test_stale_read_then_write () =
  let module C = Tm_stm.Stm_core in
  List.iter
    (fun (algo, (module Core : C.S)) ->
      let name = Stm.Algo.name algo in
      let x = C.tvar 0 in
      let t = Core.begin_ () in
      let v = Core.read t x in
      Domain.join
        (Domain.spawn (fun () ->
             let p = Core.begin_ () in
             Core.write p x (Core.read p x + 1);
             Core.commit p));
      let write_and_commit () =
        Core.write t x (v + 1);
        Core.commit t
      in
      let aborted =
        match write_and_commit () with
        | () -> false
        | exception C.Conflict ->
            Core.abort_cleanup t;
            true
      in
      Alcotest.(check bool) (name ^ ": the commit aborts") true aborted;
      Alcotest.(check int)
        (name ^ ": the peer's value survives")
        1 (Core.direct_read x))
    [
      (Stm.Algo.Tl2, (module Tm_stm.Stm_tl2 : C.S));
      (Stm.Algo.Norec, (module Tm_stm.Stm_norec));
      (Stm.Algo.Dstm, (module Tm_stm.Stm_dstm));
    ]

(* Nothing an abandoned attempt buffered may leak into the next attempt
   or the next transaction on the domain: not its writes (they would be
   read back or published), not its reads (a stale read entry would
   fail validation forever).  A foreign commit on an unrelated
   t-variable forces the cores that validate lazily to check the whole
   read set.  The global-lock core holds its serializer from the first
   access, so a foreign commit there would wait on us: it only gets the
   write-set half. *)
let reuse_after_abort algo () =
  Stm.with_algo algo (fun () ->
      let name = Stm.Algo.name algo in
      let foreign = algo <> Stm.Algo.Global_lock in
      let a = Stm.tvar 0 and b = Stm.tvar 0 and c = Stm.tvar 0 in
      let x = Stm.tvar 0 and z = Stm.tvar 0 in
      (* A body that raises with reads and writes buffered. *)
      (try
         Stm.atomically (fun () ->
             ignore (Stm.read x);
             Stm.write a 1;
             Stm.write b 2;
             if foreign then bump x;
             raise Exit)
       with Exit -> ());
      let attempts = ref 0 in
      let seen =
        Stm.atomically (fun () ->
            (* tmstatic: allow txn-purity — counts the body's runs *)
            incr attempts;
            if !attempts > 1 then failwith "stale read entry aborted a commit";
            if foreign then bump z;
            Stm.write c 3;
            (Stm.read a, Stm.read b))
      in
      Alcotest.(check (pair int int))
        (name ^ ": raised writes unseen by the next transaction")
        (0, 0) seen;
      (* An attempt that retries mid-body with reads and writes
         buffered. *)
      let attempts = ref 0 in
      let seen =
        Stm.atomically (fun () ->
            (* tmstatic: allow txn-purity — counts the body's runs *)
            incr attempts;
            match !attempts with
            | 1 ->
                ignore (Stm.read x);
                Stm.write a 10;
                Stm.write b 20;
                if foreign then bump x;
                Stm.retry ()
            | 2 ->
                if foreign then bump z;
                Stm.write c 4;
                (Stm.read a, Stm.read b)
            | _ -> failwith "stale read entry aborted a commit")
      in
      Alcotest.(check (pair int int))
        (name ^ ": retried writes unseen by the next attempt")
        (0, 0) seen;
      Alcotest.(check (list int))
        (name ^ ": only committed writes published")
        [ 0; 0; 4 ]
        [ Stm.read a; Stm.read b; Stm.read c ])

(* The write set keeps its entries in insertion order and sorts an
   index permutation.  Over random first writes and rewrites, after
   [sort]: [entry]/[id] ascend by id and agree with each other and
   with [slot], [find_sorted] finds each entry's insertion index, and
   [index]/[value] still find each t-variable's last buffered value. *)
let prop_wset_sorted_view =
  let module C = Tm_stm.Stm_core in
  let pool = Array.init 48 (fun i -> C.tvar i) in
  QCheck2.Test.make ~count:300
    ~name:"Wset sorts a permutation: ascending view, same buffered values"
    QCheck2.Gen.(list_size (int_range 0 40) (pair (int_bound 47) int))
    (fun writes ->
      let s = C.Wset.create () in
      List.iter (fun (k, v) -> C.Wset.add s pool.(k) v) writes;
      C.Wset.sort s;
      let last = Hashtbl.create 16 in
      List.iter (fun (k, v) -> Hashtbl.replace last k v) writes;
      let n = C.Wset.length s in
      let entry_id k = match C.Wset.entry s k with C.W w -> w.tv.C.id in
      let entry_index k =
        match C.Wset.entry s k with C.W w -> C.Wset.index s w.tv
      in
      let rec ascending k =
        k >= n
        || entry_id k = C.Wset.id s k
           && entry_index k = C.Wset.slot s k
           && (k = 0 || C.Wset.id s (k - 1) < C.Wset.id s k)
           && ascending (k + 1)
      in
      n = Hashtbl.length last
      && ascending 0
      && List.for_all
           (fun k ->
             let i = C.Wset.find_sorted s pool.(k).C.id in
             if Hashtbl.mem last k then i = C.Wset.index s pool.(k) else i = -1)
           (List.init (Array.length pool) Fun.id)
      && Hashtbl.fold
           (fun k v ok ->
             ok
             &&
             let i = C.Wset.index s pool.(k) in
             i >= 0 && C.Wset.value s i pool.(k) = v)
           last true)

(* Reads and writes of a few t-variables in any order, in one TL2
   transaction: a read returns the last value written, else the
   committed one; the write set keeps one entry per written t-variable
   (a write appended without a search must never add a second); the
   commit publishes the last values. *)
let prop_tl2_one_entry_per_write =
  let module C = Tm_stm.Stm_core in
  let module T = Tm_stm.Stm_tl2 in
  let pool = Array.init 4 (fun i -> C.tvar i) in
  QCheck2.Test.make ~count:300
    ~name:"tl2 keeps one write entry per t-variable, in any order"
    QCheck2.Gen.(list_size (int_range 0 30) (pair bool (int_bound 3)))
    (fun ops ->
      let local = Array.map T.direct_read pool in
      let written = Hashtbl.create 4 in
      let t = T.begin_ () in
      let reads_ok =
        List.for_all
          (fun (write, k) ->
            if write then begin
              local.(k) <- local.(k) + 1;
              T.write t pool.(k) local.(k);
              Hashtbl.replace written k ();
              true
            end
            else T.read t pool.(k) = local.(k))
          ops
      in
      let entries = C.Wset.length t.T.ws in
      T.commit t;
      reads_ok
      && entries = Hashtbl.length written
      && Array.for_all2 (fun tv v -> T.direct_read tv = v) pool local)

(* On a fresh domain the sets start empty; a thousand reads and a
   thousand writes take both through several doublings. *)
let big_transaction algo () =
  Stm.with_algo algo (fun () ->
      let name = Stm.Algo.name algo in
      let n = 1000 in
      let tvs = Array.init n (fun i -> Stm.tvar i) in
      let own =
        Domain.join
          (Domain.spawn (fun () ->
               Stm.atomically (fun () ->
                   let vs = Array.map Stm.read tvs in
                   Array.iteri (fun i tv -> Stm.write tv (vs.(i) + 1)) tvs;
                   Array.for_all Fun.id
                     (Array.mapi (fun i tv -> Stm.read tv = i + 1) tvs))))
      in
      Alcotest.(check bool) (name ^ ": reads its own 1,000 writes") true own;
      Array.iteri
        (fun i tv ->
          Alcotest.(check int) (name ^ ": committed") (i + 1) (Stm.read tv))
        tvs)

(* Named regression: a NOrec transaction that begins while a writer
   holds the sequence lock (odd) must not take a snapshot the lock
   reaches when the writer releases.  The writer is held at
   [Publish], lock odd, before its write-back.  The reader's
   [read] samples a content cell, then accepts the sample if the lock
   still equals its snapshot; this replays those two halves around the
   writer's release.  With a snapshot of the odd value plus one, the
   stale sample was accepted and the update it missed could be lost. *)
let test_norec_begin_under_held_seqlock () =
  let module C = Tm_stm.Stm_core in
  let module N = Tm_stm.Stm_norec in
  let x = C.tvar 0 in
  let held = Atomic.make false and go = Atomic.make false in
  let hold =
    Obs.subscribe (fun site _ _ ->
        (match site with
        | Obs.Publish ->
            Atomic.set held true;
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done
        | _ -> ());
        Obs.Proceed)
  in
  Fun.protect ~finally:(fun () -> Obs.unsubscribe hold) (fun () ->
      let writer =
        Domain.spawn (fun () ->
            let t = N.begin_ () in
            N.write t x 1;
            N.commit t)
      in
      while not (Atomic.get held) do
        Domain.cpu_relax ()
      done;
      Alcotest.(check bool) "writer holds the sequence lock" true
        (Atomic.get N.seqlock land 1 = 1);
      let t = N.begin_ () in
      let sampled = Atomic.get x.C.content in
      Atomic.set go true;
      Domain.join writer;
      Alcotest.(check int) "sampled before the write-back" 0 sampled;
      Alcotest.(check bool) "stale sample rejected after the release" false
        (Atomic.get N.seqlock = t.N.snap);
      Alcotest.(check int) "the read revalidates and sees the write" 1
        (N.read t x);
      N.abort_cleanup t)

(* ------------------------------------------------------------------ *)
(* The facade off the allocator: one reused slot per domain, per-domain
   counts. *)

(* An empty body and a one-read body: the closures are built once, so
   only the facade and the core allocate in the loop. *)
let facade_words algo =
  Stm.with_algo algo (fun () ->
      let tv = Stm.tvar 0 in
      let empty () = () and one_read () = ignore (Stm.read tv) in
      ( words_per (fun () -> Stm.atomically empty),
        words_per (fun () -> Stm.atomically one_read) ))

let facade_allocation algo () =
  let name = Stm.Algo.name algo in
  let empty, one_read = facade_words algo in
  if empty > 3. then
    Alcotest.failf "%s: an empty transaction allocates %.2f words" name empty;
  if one_read > 3. then
    Alcotest.failf "%s: a one-read transaction allocates %.2f words" name
      one_read

(* DSTM allocates one thing per attempt: the fresh status cell its
   locators point at (2 words).  A read of a t-variable DSTM has
   touched before fills the reused read-set arrays and allocates
   nothing. *)
let test_dstm_facade_allocation () =
  let empty, one_read = facade_words Stm.Algo.Dstm in
  if empty > 3. then
    Alcotest.failf "dstm: an empty transaction allocates %.2f words" empty;
  if one_read -. empty > 1. then
    Alcotest.failf "dstm: a read allocates %.2f words" (one_read -. empty)

let stats_delta f =
  let c0, a0 = Stm.stats () in
  f ();
  let c1, a1 = Stm.stats () in
  (c1 - c0, a1 - a0)

(* Contended commits on two domains: every one is counted once. *)
let test_stats_exact_contended () =
  let hot = Stm.tvar 0 and n = 10_000 in
  let commits, _ =
    stats_delta (fun () ->
        spawn_all
          (List.init 2 (fun _ () ->
               for _ = 1 to n do
                 Stm.atomically (fun () -> Stm.write hot (Stm.read hot + 1))
               done)))
  in
  Alcotest.(check int) "commits" (2 * n) commits;
  Alcotest.(check int) "every increment" (2 * n) (Stm.read hot)

(* A thousand domains, one after another, each with a transaction whose
   read set grows the domain's TL2 buffer to 4,096 entries (16,384
   words).  Their counts survive them exactly, and their buffers do not:
   the facade keeps only each domain's counts. *)
let test_stats_survive_domains () =
  Stm.with_algo Stm.Algo.Tl2 (fun () ->
      let tvs = Array.init 3000 (fun i -> Stm.tvar i) in
      let domains = 1000 in
      let live_words () =
        Gc.compact ();
        (Gc.stat ()).Gc.live_words
      in
      let w0 = live_words () in
      let commits, _ =
        stats_delta (fun () ->
            for _ = 1 to domains do
              Domain.join
                (Domain.spawn (fun () ->
                     Stm.atomically (fun () ->
                         Array.iter (fun tv -> ignore (Stm.read tv)) tvs)))
            done)
      in
      Alcotest.(check int) "commits of joined domains" domains commits;
      let grown = live_words () - w0 in
      if grown > 1_000_000 then
        Alcotest.failf "%d words still live after %d domains exited" grown
          domains)

(* The announcement tables are consumed as association keys — telemetry
   label sets, chaos plans, blame classification — so a duplicated
   entry or an order that varied between calls would silently skew
   those consumers.  tmstatic cross-checks the same tables against each
   core's emission sites at the AST level (seam-contract); this pins
   the runtime side of that contract. *)
let test_algo_tables_hygienic =
  QCheck2.Test.make ~count:200
    ~name:"Algo announcement tables are duplicate-free and order-stable"
    ~print:Stm.Algo.name
    QCheck2.Gen.(oneofl Stm.Algo.all)
    (fun a ->
      let dup_free l =
        List.length (List.sort_uniq compare l) = List.length l
      in
      let stable f = f a = f a in
      dup_free (Stm.Algo.sites a) && stable Stm.Algo.sites)

let () =
  Alcotest.run "tm_stm"
    [
      ( "semantics",
        [
          Alcotest.test_case "read/write" `Quick test_basic_read_write;
          Alcotest.test_case "rollback on exception" `Quick
            test_rollback_on_exception;
          Alcotest.test_case "write outside rejected" `Quick
            test_write_outside_rejected;
          Alcotest.test_case "snapshot read outside" `Quick
            test_snapshot_read_outside;
          Alcotest.test_case "nesting flattens" `Quick test_nesting_flattens;
          Alcotest.test_case "two tvars" `Quick test_two_tvars_consistent;
          Alcotest.test_case "polymorphic tvars" `Quick test_polymorphic_tvars;
          Alcotest.test_case "stats" `Quick test_stats_move;
          QCheck_alcotest.to_alcotest test_stm_model;
        ] );
      ( "data structures",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          QCheck_alcotest.to_alcotest test_list_model;
          Alcotest.test_case "queue fifo" `Quick test_queue_fifo;
          Alcotest.test_case "stack" `Quick test_stack;
          QCheck_alcotest.to_alcotest test_map_model;
          Alcotest.test_case "map sequential" `Quick test_map_sequential;
          Alcotest.test_case "hashtbl" `Quick test_hashtbl;
        ] );
      ( "global-lock runtime",
        [
          Alcotest.test_case "basics" `Quick test_lock_stm_basic;
          Alcotest.test_case "every transaction commits" `Quick
            test_lock_stm_every_txn_commits;
          Alcotest.test_case "parallel counter" `Slow
            test_lock_stm_parallel_counter;
        ] );
      ( "algorithm zoo",
        [
          Alcotest.test_case "semantics, every core" `Quick test_zoo_semantics;
          QCheck_alcotest.to_alcotest test_algo_tables_hygienic;
          Alcotest.test_case "global-lock parallel counter" `Slow
            (zoo_parallel_counter Stm.Algo.Global_lock);
          Alcotest.test_case "dstm parallel counter" `Slow
            (zoo_parallel_counter Stm.Algo.Dstm);
          Alcotest.test_case "norec parallel counter" `Slow
            (zoo_parallel_counter Stm.Algo.Norec);
          Alcotest.test_case "global-lock bank snapshot" `Slow
            (zoo_bank_snapshot Stm.Algo.Global_lock);
          Alcotest.test_case "dstm bank snapshot" `Slow
            (zoo_bank_snapshot Stm.Algo.Dstm);
          Alcotest.test_case "norec bank snapshot" `Slow
            (zoo_bank_snapshot Stm.Algo.Norec);
          Alcotest.test_case "dstm abort-stealing livelock" `Slow
            test_dstm_steal_livelock;
          Alcotest.test_case "norec value-validation ABA" `Slow
            test_norec_value_validation_aba;
          Alcotest.test_case "dstm first-touch race" `Slow
            test_dstm_first_touch_race;
        ] );
      ( "observation seam",
        [
          Alcotest.test_case "recover keeps only the trace" `Quick
            test_recover_keeps_only_trace;
          Alcotest.test_case "trace alone" `Quick test_trace_alone;
          Alcotest.test_case "chaos alone" `Quick test_chaos_alone;
          Alcotest.test_case "disarmed seam inert" `Quick test_disarmed_inert;
          Alcotest.test_case "commit carries the slot" `Quick
            test_commit_carries_slot;
          Alcotest.test_case "progress watermark" `Quick test_progress_watermark;
          Alcotest.test_case "set_self rejects a slot past the vlock bits"
            `Quick test_set_self_bound;
          Alcotest.test_case "owner comes from the vlock" `Quick
            test_tl2_owner_from_vlock;
          Alcotest.test_case "tl2 sites truthful" `Slow
            (sites_truthful Stm.Algo.Tl2);
          Alcotest.test_case "global-lock sites truthful" `Slow
            (sites_truthful Stm.Algo.Global_lock);
          Alcotest.test_case "dstm sites truthful" `Slow
            (sites_truthful Stm.Algo.Dstm);
          Alcotest.test_case "norec sites truthful" `Slow
            (sites_truthful Stm.Algo.Norec);
          Alcotest.test_case "counted seam deliveries per core" `Quick
            test_counted_deliveries;
          Alcotest.test_case "validation names the rival, not the committer"
            `Quick test_tl2_validation_names_rival;
        ] );
      ( "sets as data",
        [
          Alcotest.test_case "tl2 read allocates nothing" `Quick
            test_tl2_read_allocates_nothing;
          Alcotest.test_case "tl2 re-reads allocate nothing" `Quick
            (rereads_allocate_nothing Stm.Algo.Tl2);
          Alcotest.test_case "dstm re-reads allocate nothing" `Quick
            (rereads_allocate_nothing Stm.Algo.Dstm);
          Alcotest.test_case "norec re-reads allocate nothing" `Quick
            (rereads_allocate_nothing Stm.Algo.Norec);
          Alcotest.test_case "tl2 write allocation" `Quick
            (write_allocation Stm.Algo.Tl2);
          Alcotest.test_case "global-lock write allocation" `Quick
            (write_allocation Stm.Algo.Global_lock);
          Alcotest.test_case "norec write allocation" `Quick
            (write_allocation Stm.Algo.Norec);
          Alcotest.test_case "tl2 reuse after abort" `Quick
            (reuse_after_abort Stm.Algo.Tl2);
          Alcotest.test_case "global-lock reuse after abort" `Quick
            (reuse_after_abort Stm.Algo.Global_lock);
          Alcotest.test_case "norec reuse after abort" `Quick
            (reuse_after_abort Stm.Algo.Norec);
          Alcotest.test_case "dstm reuse after abort" `Quick
            (reuse_after_abort Stm.Algo.Dstm);
          Alcotest.test_case "t-variable words" `Quick test_tvar_words;
          Alcotest.test_case "tl2 1,000-entry sets" `Quick
            (big_transaction Stm.Algo.Tl2);
          Alcotest.test_case "global-lock 1,000-entry sets" `Quick
            (big_transaction Stm.Algo.Global_lock);
          Alcotest.test_case "norec 1,000-entry sets" `Quick
            (big_transaction Stm.Algo.Norec);
          Alcotest.test_case "norec begin under a held seqlock" `Quick
            test_norec_begin_under_held_seqlock;
          QCheck_alcotest.to_alcotest prop_wset_sorted_view;
          Alcotest.test_case "dstm write allocation" `Quick
            (write_allocation Stm.Algo.Dstm);
          Alcotest.test_case "a stale read-then-write aborts" `Quick
            test_stale_read_then_write;
          QCheck_alcotest.to_alcotest prop_tl2_one_entry_per_write;
        ] );
      ( "facade",
        [
          Alcotest.test_case "tl2 allocates nothing per transaction" `Quick
            (facade_allocation Stm.Algo.Tl2);
          Alcotest.test_case "global-lock allocates nothing per transaction"
            `Quick
            (facade_allocation Stm.Algo.Global_lock);
          Alcotest.test_case "norec allocates nothing per transaction" `Quick
            (facade_allocation Stm.Algo.Norec);
          Alcotest.test_case "dstm allocation is bounded" `Quick
            test_dstm_facade_allocation;
          Alcotest.test_case "stats exact under contention" `Quick
            test_stats_exact_contended;
          Alcotest.test_case "stats survive 1,000 domains" `Quick
            test_stats_survive_domains;
        ] );
      ( "multicore stress",
        [
          Alcotest.test_case "parallel counter" `Slow test_parallel_counter;
          Alcotest.test_case "parallel bank" `Slow test_parallel_bank;
          Alcotest.test_case "bank snapshot consistency" `Slow
            test_bank_snapshot_consistency;
          Alcotest.test_case "parallel list" `Slow test_parallel_list;
          Alcotest.test_case "parallel queue" `Slow test_parallel_queue;
          Alcotest.test_case "parallel map" `Slow test_parallel_map;
          Alcotest.test_case "parallel stack" `Slow test_parallel_stack;
          Alcotest.test_case "parallel hashtbl" `Slow test_parallel_hashtbl;
        ] );
    ]
