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
    d.history <- History.append d.history (Event.Inv (p, inv));
    d.tm.Tm_impl.Tm_intf.invoke p inv;
    let rec wait n =
      if n > d.patience then raise Blocked
      else
        match d.tm.Tm_impl.Tm_intf.poll p with
        | Some resp ->
            d.history <- History.append d.history (Event.Res (p, resp));
            resp
        | None -> wait (n + 1)
    in
    wait 0

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

let run ?(patience = 200) ?(rounds = 50) entry algorithm =
  let cfg = Tm_impl.Tm_intf.config ~nprocs:2 ~ntvars:1 () in
  let tm = Tm_impl.Registry.instance entry cfg in
  let d = Drive.make tm patience in
  let victim_commits = ref 0 in
  let victim_aborts = ref 0 in
  let winner_commits = ref 0 in
  let terminated = ref false in
  let blocked = ref false in
  let completed = ref 0 in
  (* p1's last read response, [None] when the last response was an
     abort. *)
  let p1_value = ref None in
  let p1_read () =
    match Drive.op d 1 (Event.Read x) with
    | Event.Value v -> p1_value := Some v
    | Event.Aborted ->
        incr victim_aborts;
        p1_value := None
    | Event.Ok_written | Event.Committed -> assert false
  in
  (* Step 3 of Algorithm 1 / Step 2 of Algorithm 2: p1 attempts the
     conflicting write and commit; an opaque TM must abort it. *)
  let p1_attempt () =
    match !p1_value with
    | None -> ()
    | Some v -> (
        p1_value := None;
        match Drive.op d 1 (Event.Write (x, v + 1)) with
        | Event.Aborted -> incr victim_aborts
        | Event.Ok_written -> (
            match Drive.op d 1 Event.Try_commit with
            | Event.Committed ->
                incr victim_commits;
                terminated := true
            | Event.Aborted -> incr victim_aborts
            | Event.Value _ | Event.Ok_written -> assert false)
        | Event.Value _ | Event.Committed -> assert false)
  in
  let winner_starved = ref false in
  (try
     match algorithm with
     | Algorithm_1 ->
         (* p1 reads once (Step 1), then is suspended; each round: p2
            retries until it commits (Step 2), p1 attempts (Step 3) and,
            aborted, reads again. *)
         p1_read ();
         while (not !terminated) && !completed < rounds do
           let _aborted = Drive.commit_cycle d 2 x ~max_attempts:patience in
           incr winner_commits;
           p1_attempt ();
           if not !terminated then p1_read ();
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
           (not !terminated) && !completed < rounds
           && !iterations < iteration_cap
         do
           incr iterations;
           p1_read ();
           match Drive.one_attempt d 2 x with
           | `Committed ->
               incr winner_commits;
               p1_attempt ();
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
    victim_commits = !victim_commits;
    victim_aborts = !victim_aborts;
    winner_commits = !winner_commits;
    blocked = !blocked;
    winner_starved = !winner_starved;
    terminated = !terminated;
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
    let commits = Array.make (nprocs + 1) 0 in
    let aborts = Array.make (nprocs + 1) 0 in
    let blocked = ref false in
    let any_victim_committed = ref false in
    let completed = ref 0 in
    let winner = nprocs in
    let victims = List.init (nprocs - 1) (fun i -> i + 1) in
    (* Per-victim last read value ([None] after an abort). *)
    let values = Array.make (nprocs + 1) None in
    let victim_read p =
      match Drive.op d p (Event.Read x) with
      | Event.Value v -> values.(p) <- Some v
      | Event.Aborted ->
          aborts.(p) <- aborts.(p) + 1;
          values.(p) <- None
      | Event.Ok_written | Event.Committed -> assert false
    in
    let victim_attempt p =
      match values.(p) with
      | None -> ()
      | Some v -> (
          values.(p) <- None;
          match Drive.op d p (Event.Write (x, v + 1)) with
          | Event.Aborted -> aborts.(p) <- aborts.(p) + 1
          | Event.Ok_written -> (
              match Drive.op d p Event.Try_commit with
              | Event.Committed ->
                  commits.(p) <- commits.(p) + 1;
                  any_victim_committed := true
              | Event.Aborted -> aborts.(p) <- aborts.(p) + 1
              | Event.Value _ | Event.Ok_written -> assert false)
          | Event.Value _ | Event.Committed -> assert false)
    in
    (try
       while (not !any_victim_committed) && !completed < rounds do
         List.iter victim_read victims;
         let _ = Drive.commit_cycle d winner x ~max_attempts:patience in
         commits.(winner) <- commits.(winner) + 1;
         List.iter victim_attempt victims;
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
      commits;
      aborts;
      blocked = !blocked;
      any_victim_committed = !any_victim_committed;
    }
end

type verdict = Blocked | Winner_starved | Victim_committed | Victim_starves

let verdict r =
  if r.blocked then Blocked
  else if r.winner_starved then Winner_starved
  else if r.terminated then Victim_committed
  else Victim_starves
