open Tm_history

let is_pending l p = not (Lasso.infinitely_many l Event.is_commit p)

let crashes l p =
  (not (Lasso.projection_infinite l p))
  && Lasso.finite_count l (fun e -> Event.proc e = p) p > 0

let is_parasitic l p =
  Lasso.projection_infinite l p
  && (not (Lasso.infinitely_many l Event.is_try_commit p))
  && not (Lasso.infinitely_many l Event.is_abort p)

let is_correct l p = (not (is_parasitic l p)) && not (crashes l p)
let is_faulty l p = not (is_correct l p)

let is_starving l p =
  (not (crashes l p)) && (not (is_parasitic l p)) && is_pending l p

let makes_progress l p = is_correct l p && not (is_pending l p)

let correct_processes l = List.filter (is_correct l) (Lasso.procs l)
let progressing_processes l = List.filter (makes_progress l) (Lasso.procs l)

let runs_alone l p =
  is_correct l p
  && List.for_all (fun q -> q = p || not (is_correct l q)) (Lasso.procs l)

type cls = Crashed | Parasitic | Starving | Progressing

let cls l p =
  if crashes l p then Crashed
  else if is_parasitic l p then Parasitic
  else if is_pending l p then Starving
  else Progressing

let cls_label = function
  | Crashed -> "crashed"
  | Parasitic -> "parasitic"
  | Starving -> "starving"
  | Progressing -> "progressing"

let equal_cls (a : cls) b = a = b

type summary = {
  proc : Event.proc;
  pending : bool;
  crashed : bool;
  parasitic : bool;
  starving : bool;
  correct : bool;
  progresses : bool;
}

let classify l =
  List.map
    (fun p ->
      {
        proc = p;
        pending = is_pending l p;
        crashed = crashes l p;
        parasitic = is_parasitic l p;
        starving = is_starving l p;
        correct = is_correct l p;
        progresses = makes_progress l p;
      })
    (Lasso.procs l)

let pp_summary ppf s =
  let flag name b = if b then [ name ] else [] in
  let flags =
    List.concat
      [
        flag "pending" s.pending;
        flag "crashed" s.crashed;
        flag "parasitic" s.parasitic;
        flag "starving" s.starving;
        flag "correct" s.correct;
        flag "progresses" s.progresses;
      ]
  in
  Fmt.pf ppf "p%d: %s" s.proc (String.concat ", " flags)

let pp_table ppf = Fmt.(list ~sep:(any "@,") pp_summary) ppf
