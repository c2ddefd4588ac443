open Tm_history

type algorithm = Algorithm_1 | Algorithm_2

type result = {
  history : History.t;
  rounds_completed : int;
  victim_commits : int;
  victim_aborts : int;
  winner_commits : int;
  blocked : bool;
  winner_starved : bool;
  terminated : bool;
}

exception Blocked
exception Winner_starved

(* Shared driving machinery: perform one complete operation (invocation
   followed by polls until the TM responds), recording events. *)
module Drive = struct
  type t = {
    tm : Tm_impl.Tm_intf.instance;
    mutable history : History.t;
    patience : int;
  }

  let make tm patience = { tm; history = History.empty; patience }

  let op d p inv =
    match
      Tm_impl.Tm_intf.call d.tm ~patience:d.patience
        ~record:(fun e -> d.history <- History.append d.history e)
        p inv
    with
    | Some resp -> resp
    | None -> raise Blocked

  (* One read/write/commit attempt by the winner; [`Committed] or
     [`Aborted]. *)
  let one_attempt d p x =
    match op d p (Event.Read x) with
    | Event.Aborted -> `Aborted
    | Event.Value v -> (
        match op d p (Event.Write (x, v + 1)) with
        | Event.Aborted -> `Aborted
        | Event.Ok_written -> (
            match op d p Event.Try_commit with
            | Event.Committed -> `Committed
            | Event.Aborted -> `Aborted
            | Event.Value _ | Event.Ok_written -> assert false)
        | Event.Value _ | Event.Committed -> assert false)
    | Event.Ok_written | Event.Committed -> assert false

  (* Repeat p's read/write/commit cycle until it commits; returns the
     number of aborted attempts.  Used for the winner process, which any
     TM ensuring at least global progress lets through while its rival is
     suspended; a TM that keeps aborting it starves the winner (the
     Figure 9 case). *)
  let commit_cycle d p x ~max_attempts =
    let rec attempt k =
      if k > max_attempts then raise Winner_starved
      else
        match one_attempt d p x with
        | `Committed -> k
        | `Aborted -> attempt (k + 1)
    in
    attempt 0
end

let x = 0

(* The victims' moves, shared by both algorithms (p1) and by the
   n-process generalization: a read of x whose value is remembered
   ([None] after an abort), and, after an answered read, the conflicting
   write and commit (Step 3 of Algorithm 1, Step 2 of Algorithm 2) that
   an opaque TM must abort.  [commits] and [aborts] count per process. *)
type victims = {
  values : int option array;
  commits : int array;
  aborts : int array;
}

let victims nprocs =
  {
    values = Array.make (nprocs + 1) None;
    commits = Array.make (nprocs + 1) 0;
    aborts = Array.make (nprocs + 1) 0;
  }

let victim_read d v p =
  match Drive.op d p (Event.Read x) with
  | Event.Value value -> v.values.(p) <- Some value
  | Event.Aborted ->
      v.aborts.(p) <- v.aborts.(p) + 1;
      v.values.(p) <- None
  | Event.Ok_written | Event.Committed -> assert false

let victim_attempt d v p =
  match v.values.(p) with
  | None -> ()
  | Some value -> (
      v.values.(p) <- None;
      match Drive.op d p (Event.Write (x, value + 1)) with
      | Event.Aborted -> v.aborts.(p) <- v.aborts.(p) + 1
      | Event.Ok_written -> (
          match Drive.op d p Event.Try_commit with
          | Event.Committed -> v.commits.(p) <- v.commits.(p) + 1
          | Event.Aborted -> v.aborts.(p) <- v.aborts.(p) + 1
          | Event.Value _ | Event.Ok_written -> assert false)
      | Event.Value _ | Event.Committed -> assert false)

let run ?(patience = 200) ?(rounds = 50) entry algorithm =
  let cfg = Tm_impl.Tm_intf.config ~nprocs:2 ~ntvars:1 () in
  let tm = Tm_impl.Registry.instance entry cfg in
  let d = Drive.make tm patience in
  let v = victims 2 in
  let terminated () = v.commits.(1) > 0 in
  let winner_commits = ref 0 in
  let blocked = ref false in
  let completed = ref 0 in
  let winner_starved = ref false in
  (try
     match algorithm with
     | Algorithm_1 ->
         (* p1 reads once (Step 1), then is suspended; each round: p2
            retries until it commits (Step 2), p1 attempts (Step 3) and,
            aborted, reads again. *)
         victim_read d v 1;
         while (not (terminated ())) && !completed < rounds do
           let _aborted = Drive.commit_cycle d 2 x ~max_attempts:patience in
           incr winner_commits;
           victim_attempt d v 1;
           if not (terminated ()) then victim_read d v 1;
           incr completed
         done
     | Algorithm_2 ->
         (* The paper's Step 1, literally: every iteration starts with a
            read by p1, then one attempt by p2; only when p2 commits does
            p1 attempt (Step 2).  A TM that never aborts p1's reads and
            never commits p2 turns p1 parasitic — the Figure 12 case. *)
         let iterations = ref 0 in
         let iteration_cap = rounds * patience in
         while
           (not (terminated ())) && !completed < rounds
           && !iterations < iteration_cap
         do
           incr iterations;
           victim_read d v 1;
           match Drive.one_attempt d 2 x with
           | `Committed ->
               incr winner_commits;
               victim_attempt d v 1;
               incr completed
           | `Aborted -> ()
         done;
         if !winner_commits = 0 && !iterations >= iteration_cap then
           winner_starved := true
   with
  | Blocked -> blocked := true
  | Winner_starved -> winner_starved := true);
  {
    history = d.Drive.history;
    rounds_completed = !completed;
    victim_commits = v.commits.(1);
    victim_aborts = v.aborts.(1);
    winner_commits = !winner_commits;
    blocked = !blocked;
    winner_starved = !winner_starved;
    terminated = terminated ();
  }

module General = struct
  type nresult = {
    history : History.t;
    rounds_completed : int;
    commits : int array;
    aborts : int array;
    blocked : bool;
    any_victim_committed : bool;
  }

  let run ?(patience = 400) ?(rounds = 25) ~nprocs entry =
    if nprocs < 2 then invalid_arg "General.run: need at least 2 processes";
    let cfg = Tm_impl.Tm_intf.config ~nprocs ~ntvars:1 () in
    let tm = Tm_impl.Registry.instance entry cfg in
    let d = Drive.make tm patience in
    let v = victims nprocs in
    let blocked = ref false in
    let completed = ref 0 in
    let winner = nprocs in
    let victim_procs = List.init (nprocs - 1) (fun i -> i + 1) in
    let any_victim_committed () =
      List.exists (fun p -> v.commits.(p) > 0) victim_procs
    in
    (try
       while (not (any_victim_committed ())) && !completed < rounds do
         List.iter (victim_read d v) victim_procs;
         let _ = Drive.commit_cycle d winner x ~max_attempts:patience in
         v.commits.(winner) <- v.commits.(winner) + 1;
         List.iter (victim_attempt d v) victim_procs;
         incr completed
       done
     with
    | Blocked -> blocked := true
    | Winner_starved ->
        (* A TM without global progress can starve the winner too; for the
           purposes of Lemma 1 this is still a win for the environment, but
           we surface it as a blocked run. *)
        blocked := true);
    {
      history = d.Drive.history;
      rounds_completed = !completed;
      commits = v.commits;
      aborts = v.aborts;
      blocked = !blocked;
      any_victim_committed = any_victim_committed ();
    }
end

type verdict = Blocked | Winner_starved | Victim_committed | Victim_starves

let verdict r =
  if r.blocked then Blocked
  else if r.winner_starved then Winner_starved
  else if r.terminated then Victim_committed
  else Victim_starves
