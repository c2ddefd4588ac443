open Tm_history

let local_progress l =
  List.for_all (Process_class.makes_progress l) (Process_class.correct_processes l)

let global_progress l =
  match Process_class.correct_processes l with
  | [] -> true
  | correct -> List.exists (Process_class.makes_progress l) correct

let solo_progress l =
  List.for_all
    (fun p ->
      (not (Process_class.runs_alone l p)) || Process_class.makes_progress l p)
    (Lasso.procs l)

(* A history violating this belongs to no nonblocking TM-liveness
   property (Definition 4). *)
let respects_nonblocking = solo_progress

(* If at least two processes are correct then at least two make
   progress (Definition 5). *)
let respects_biprogressing l =
  let correct = Process_class.correct_processes l in
  List.length correct < 2
  || List.length (Process_class.progressing_processes l) >= 2

type t = { name : string; holds : Lasso.t -> bool }

let k_progress k =
  {
    name = Fmt.str "%d-progress" k;
    holds =
      (fun l ->
        let correct = Process_class.correct_processes l in
        let progressing = Process_class.progressing_processes l in
        correct = []
        || List.length progressing >= min k (List.length correct));
  }

let priority_progress ~priority l =
  match Process_class.correct_processes l with
  | [] -> true
  | correct ->
      let top =
        List.fold_left (fun acc p -> max acc (priority p)) min_int correct
      in
      List.for_all
        (fun p -> priority p < top || Process_class.makes_progress l p)
        correct

let all =
  [
    { name = "local-progress"; holds = local_progress };
    { name = "global-progress"; holds = global_progress };
    { name = "solo-progress"; holds = solo_progress };
    k_progress 2;
    k_progress 3;
  ]

let stronger_on l1 l2 corpus =
  List.for_all (fun h -> (not (l1.holds h)) || l2.holds h) corpus

let nonblocking_on l corpus =
  List.for_all
    (fun h -> (not (l.holds h)) || respects_nonblocking h)
    corpus

let biprogressing_on l corpus =
  List.for_all
    (fun h -> (not (l.holds h)) || respects_biprogressing h)
    corpus

type verdict = {
  local : bool;
  global : bool;
  solo : bool;
  nonblocking_ok : bool;
  biprogressing_ok : bool;
}

let verdict l =
  {
    local = local_progress l;
    global = global_progress l;
    solo = solo_progress l;
    nonblocking_ok = respects_nonblocking l;
    biprogressing_ok = respects_biprogressing l;
  }

let pp_verdict ppf v =
  let mark b = if b then "yes" else "no" in
  Fmt.pf ppf
    "local=%s global=%s solo=%s respects-nonblocking=%s \
     respects-biprogressing=%s"
    (mark v.local) (mark v.global) (mark v.solo) (mark v.nonblocking_ok)
    (mark v.biprogressing_ok)
