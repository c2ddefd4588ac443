(* What every section of the reproduction harness shares: the verdict
   printer and its failure count, wall-clock timing, the domain fan-out,
   the armed-vs-disarmed seam-cost protocol (P5) and the BENCH result
   writer (P5, P9-P13). *)

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
   [seam_iters] single-domain read-modify-write increments of one
   t-variable.  [seam_cost ()] warms it up and times three trials with
   nothing subscribed ([t_off]); [armed s arm] times three trials with
   what [arm ()] subscribed, then calls the disarm [arm] returned. *)

let seam_iters = 200_000

type seam = { work : unit -> unit; t_off : float }

let seam_cost () =
  let v = Stm.tvar 0 in
  let work () =
    for _ = 1 to seam_iters do
      Stm.atomically (fun () -> Stm.write v (Stm.read v + 1))
    done
  in
  work () (* warm-up *);
  Fmt.pr "  %d single-domain increments, min of 3 trials:@." seam_iters;
  { work; t_off = min3 work }

let armed s arm =
  let disarm = arm () in
  let t = min3 s.work in
  disarm ();
  t

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
