(* The commit poll a mid-commit crash lands on, from the TM's contract
   row; right after the tryC invocation for a TM without one. *)
let mid_commit_depth (entry : Tm_impl.Registry.entry) =
  Tm_impl.Contract.find entry.entry_name
  |> Option.fold ~none:0 ~some:(fun (c : Tm_impl.Contract.t) ->
         c.mid_commit_depth)

let spec ?workload ~seed fate =
  let sched =
    match fate with Runner.Healthy -> Runner.Uniform | _ -> Runner.Round_robin
  in
  Runner.spec ~nprocs:2 ~ntvars:1 ~steps:4000 ~seed ~sched ?workload
    ~fates:[ (1, fate) ]
    ()

(* The runner progresses when it commits at least this often. *)
let progress_commits = 10
let commits_of_runner (o : Runner.outcome) = o.commits.(2)
let run entry fate = Runner.run entry (spec ~seed:1 fate)

let measure entry =
  let progresses fate =
    commits_of_runner (run entry fate) >= progress_commits
  in
  {
    Tm_impl.Contract.healthy = progresses Runner.Healthy;
    crash_after_write = progresses (Runner.Crash_after_write 1);
    mid_commit = progresses (Runner.Crash_mid_commit (mid_commit_depth entry));
    parasite = progresses (Runner.Parasitic_from 10);
  }

type windows = { stalls : int; runner_commits : int list }

(* Read the hot t-variable, then increment it three times. *)
let hot =
  let inc = Workload.W_write (0, fun latest -> latest 0 + 1) in
  Workload.fixed [ [ Workload.W_read 0; inc; inc; inc ] ]

let crash_windows ?(samples = 40) entry =
  let commits =
    List.init (Int.max 0 samples) (fun i ->
        let seed = i + 1 in
        let crash = Runner.Crash_at (20 + (seed * 17 mod 300)) in
        commits_of_runner (Runner.run entry (spec ~workload:hot ~seed crash)))
  in
  {
    stalls = List.length (List.filter (fun c -> c < progress_commits) commits);
    runner_commits = commits;
  }
