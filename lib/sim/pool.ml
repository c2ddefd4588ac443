(* A growable ring-buffer deque.  All access happens under the pool's
   mutex; the deque itself is not thread-safe. *)
module Deque = struct
  type 'a t = {
    mutable buf : 'a option array;
    mutable head : int;  (* index of the front element *)
    mutable len : int;
  }

  let create () = { buf = Array.make 16 None; head = 0; len = 0 }

  let grow d =
    let cap = Array.length d.buf in
    let buf = Array.make (2 * cap) None in
    for i = 0 to d.len - 1 do
      buf.(i) <- d.buf.((d.head + i) mod cap)
    done;
    d.buf <- buf;
    d.head <- 0

  let push_back d x =
    if d.len = Array.length d.buf then grow d;
    d.buf.((d.head + d.len) mod Array.length d.buf) <- Some x;
    d.len <- d.len + 1

  let pop_front d =
    if d.len = 0 then None
    else begin
      let x = d.buf.(d.head) in
      d.buf.(d.head) <- None;
      d.head <- (d.head + 1) mod Array.length d.buf;
      d.len <- d.len - 1;
      x
    end

  let pop_back d =
    if d.len = 0 then None
    else begin
      let i = (d.head + d.len - 1) mod Array.length d.buf in
      let x = d.buf.(i) in
      d.buf.(i) <- None;
      d.len <- d.len - 1;
      x
    end
end

type t = {
  jobs : int;
  queue : (unit -> unit) Deque.t;
  mutex : Mutex.t;
  nonempty : Condition.t;  (* work arrived, or the pool closed *)
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let jobs t = t.jobs

let rec worker_loop t =
  Mutex.lock t.mutex;
  let rec take () =
    match Deque.pop_front t.queue with
    | Some task ->
        Mutex.unlock t.mutex;
        Some task
    | None ->
        if t.closed then begin
          Mutex.unlock t.mutex;
          None
        end
        else begin
          Condition.wait t.nonempty t.mutex;
          take ()
        end
  in
  match take () with
  | Some task ->
      task ();
      worker_loop t
  | None -> ()

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      queue = Deque.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      closed = false;
      workers = [];
    }
  in
  t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  let ws = t.workers in
  t.closed <- true;
  t.workers <- [];
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  List.iter Domain.join ws

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map_array t f xs =
  let n = Array.length xs in
  if t.jobs = 1 || n <= 1 then Array.map f xs
  else begin
    let results = Array.make n None in
    let first_error = Atomic.make None in
    let remaining = ref n in
    let drained = Condition.create () in
    (* Each task owns slot [i]; result placement is by index, so the
       merged output is independent of which domain ran what and in what
       order — parallel runs are bit-for-bit equal to sequential ones. *)
    let task i () =
      (match f xs.(i) with
      | r -> results.(i) <- Some r
      | exception e -> ignore (Atomic.compare_and_set first_error None (Some e)));
      Mutex.lock t.mutex;
      decr remaining;
      if !remaining = 0 then Condition.broadcast drained;
      Mutex.unlock t.mutex
    in
    Mutex.lock t.mutex;
    if t.closed then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.map_array: pool is shut down"
    end;
    for i = 0 to n - 1 do
      Deque.push_back t.queue (task i)
    done;
    Condition.broadcast t.nonempty;
    (* The submitter helps from the back of the deque until it is empty,
       then sleeps until the last straggler finishes. *)
    let rec help () =
      match Deque.pop_back t.queue with
      | Some task ->
          Mutex.unlock t.mutex;
          task ();
          Mutex.lock t.mutex;
          help ()
      | None -> ()
    in
    help ();
    while !remaining > 0 do
      Condition.wait drained t.mutex
    done;
    Mutex.unlock t.mutex;
    match Atomic.get first_error with
    | Some e -> raise e
    | None -> Array.map Option.get results
  end
