open Tm_history

type outcome = {
  history : History.t;
  committed : int array;
  retries : int array;
}

(* Execute one complete operation against the TM on behalf of [p],
   recording events. *)
let exec_op tm history p inv =
  match
    Tm_impl.Tm_intf.call tm ~patience:10_000
      ~record:(fun e -> history := History.append !history e)
      p inv
  with
  | Some r -> r
  | None -> failwith "controlled executor: TM not responding"

(* Run one body to completion; [`Committed] or [`Aborted] (one attempt). *)
let attempt tm history reads p body =
  Workload.Reads.next_attempt reads;
  let rec ops = function
    | [] -> (
        match exec_op tm history p Event.Try_commit with
        | Event.Committed -> `Committed
        | Event.Aborted -> `Aborted
        | Event.Value _ | Event.Ok_written -> assert false)
    | Workload.W_read x :: rest -> (
        match exec_op tm history p (Event.Read x) with
        | Event.Value v ->
            Workload.Reads.record reads x v;
            ops rest
        | Event.Aborted -> `Aborted
        | Event.Ok_written | Event.Committed -> assert false)
    | Workload.W_write (x, f) :: rest -> (
        let v = f (Workload.Reads.latest reads) in
        match exec_op tm history p (Event.Write (x, v)) with
        | Event.Ok_written -> ops rest
        | Event.Aborted -> `Aborted
        | Event.Value _ | Event.Committed -> assert false)
  in
  ops body

let run entry ~nprocs ~ntvars ~submissions ~workload ~seed =
  let cfg = Tm_impl.Tm_intf.config ~seed ~nprocs ~ntvars () in
  let tm = Tm_impl.Registry.instance entry cfg in
  let master = Prng.create seed in
  let prngs = Array.init (nprocs + 1) (fun _ -> Prng.split master) in
  let history = ref History.empty in
  let committed = Array.make (nprocs + 1) 0 in
  let retries = Array.make (nprocs + 1) 0 in
  let reads = Workload.Reads.create ~ntvars in
  (* Round-robin over the submission queues: the TM (executor) decides the
     schedule, and it never interleaves two bodies — which is precisely
     the control the environment gives up in this model. *)
  for i = 0 to submissions - 1 do
    for p = 1 to nprocs do
      let body = workload.Workload.body prngs.(p) i in
      let rec until_committed k =
        if k > 1000 then
          failwith "controlled executor: body cannot commit in isolation"
        else
          match attempt tm history reads p body with
          | `Committed -> committed.(p) <- committed.(p) + 1
          | `Aborted ->
              retries.(p) <- retries.(p) + 1;
              until_committed (k + 1)
      in
      until_committed 0
    done
  done;
  { history = !history; committed; retries }
