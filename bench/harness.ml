(* What every section of the reproduction harness shares: the verdict
   printer and its failure count, wall-clock timing, the domain fan-out,
   the armed-vs-disarmed seam-cost protocol (P5, P7, P8, P10) and the
   BENCH result writer (P9-P13). *)

module Reg = Tm_impl.Registry
module Runner = Tm_sim.Runner
module Adv = Tm_adversary.Adversary
module Stm = Tm_stm.Stm
module Obs = Stm.Obs

let failures = ref 0

let verdict to_string name ~paper ~measured =
  let ok = paper = measured in
  if not ok then incr failures;
  Fmt.pr "  %-58s paper=%-6s measured=%-6s %s@." name (to_string paper)
    (to_string measured)
    (if ok then "OK" else "MISMATCH")

let check = verdict string_of_bool
let check_int = verdict string_of_int
let section id title = Fmt.pr "@.=== %s: %s ===@." id title
let tm name = Option.get (Reg.find name)

let cores = Domain.recommended_domain_count ()

(* A verdict that needs at least 4 cores (parallel speedup, real
   contention): on fewer, print why it is skipped instead. *)
let on_four_cores ~id ~what ?why f =
  if cores >= 4 then f ()
  else begin
    Fmt.pr "    only %d core(s) available: " cores;
    Option.iter (Fmt.pr "%s;@.    ") why;
    Fmt.pr "skipping the %s check (see EXPERIMENTS.md, %s)@." what id
  end

(* [f ()] and the wall-clock seconds it took. *)
let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* The best of three timed trials: the minimum shaves scheduler noise. *)
let min3 f = List.fold_left min infinity (List.init 3 (fun _ -> snd (time f)))

(* Run [f 0] .. [f (n - 1)] on [n] fresh domains and join them all. *)
let spawn_join n f =
  List.init n (fun d -> Domain.spawn (fun () -> f d)) |> List.iter Domain.join

(* ------------------------------------------------------------------ *)
(* Seam cost: what an [Obs] subscriber adds to the hot path.  The work is
   [seam_iters] single-domain read-modify-write increments.  After a
   warm-up, three timed trials run with nothing subscribed ([t_off]), one
   untimed trial is counted, three run armed ([t_armed]) and three more
   after the disarm ([t_disarmed]), which must restore the baseline. *)

let seam_iters = 200_000

type 'c seam = {
  t_off : float;
  t_armed : float;
  t_disarmed : float;
  counted : 'c;  (** what [count] found in its trial *)
}

(* The timed work, on a fresh t-variable. *)
let increments () =
  let v = Stm.tvar 0 in
  fun () ->
    for _ = 1 to seam_iters do
      Stm.atomically (fun () -> Stm.write v (Stm.read v + 1))
    done

(* [count work] runs one trial of [work] and counts what the section
   divides by; [arm ()] subscribes what the section measures and returns
   its disarm. *)
let seam_cost ~count ~arm =
  let work = increments () in
  work () (* warm-up *);
  let t_off = min3 work in
  let counted = count work in
  let disarm = arm () in
  let t_armed = min3 work in
  disarm ();
  let t_disarmed = min3 work in
  Fmt.pr "  %d single-domain increments, min of 3 trials:@." seam_iters;
  { t_off; t_armed; t_disarmed; counted }

(* One trial of [work] under a counting subscriber: the sites delivered,
   and how many of them [counted] takes. *)
let count_sites counted work =
  let all = Atomic.make 0 and hits = Atomic.make 0 in
  let sub =
    Obs.subscribe (fun site _ _ ->
        Atomic.incr all;
        if counted site then Atomic.incr hits;
        Obs.Proceed)
  in
  work ();
  Obs.unsubscribe sub;
  (Atomic.get all, Atomic.get hits)

let per_txn t = 1e9 *. t /. float_of_int seam_iters

(* The cost [t] adds over the disarmed baseline, per counted event. *)
let per_event s ~events t = 1e9 *. (t -. s.t_off) /. float_of_int events

(* The rows of a seam-cost table; each [label] carries its own padding.
   A row after the baseline shows its ratio to it, then [extra]. *)
let baseline_row s label =
  Fmt.pr "    %s%.4fs (%5.1f ns/txn)@." label s.t_off (per_txn s.t_off)

let row s label t extra =
  Fmt.pr "    %s%.4fs (%5.1f ns/txn, %.2fx%s)@." label t (per_txn t)
    (t /. s.t_off) extra

(* ------------------------------------------------------------------ *)

(* Write a section's one-line JSON document to [file] (BENCH_<name>.json
   in the working directory) and print "<what> written to <file>". *)
let write_result ~what file json =
  Out_channel.with_open_text file (fun oc ->
      output_string oc json;
      output_char oc '\n');
  Fmt.pr "    %s written to %s@." what file
