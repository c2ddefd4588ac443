type t = {
  buf : Trace_event.t array;
  cap : int;
  mutable next : int;  (** slot the next event goes into *)
  mutable n : int;  (** total events ever added *)
}

let dummy =
  {
    Trace_event.ts = 0;
    pid = 0;
    tid = 0;
    cat = Trace_event.Sched;
    name = "";
    phase = Trace_event.Instant;
    args = [];
  }

let create ~capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be positive";
  { buf = Array.make capacity dummy; cap = capacity; next = 0; n = 0 }

let length r = min r.n r.cap
let total r = r.n
let dropped r = max 0 (r.n - r.cap)

let add r e =
  r.buf.(r.next) <- e;
  r.next <- (r.next + 1) mod r.cap;
  r.n <- r.n + 1

let to_list r =
  let len = length r in
  let first = if r.n <= r.cap then 0 else r.next in
  List.init len (fun i -> r.buf.((first + i) mod r.cap))

let clear r =
  r.next <- 0;
  r.n <- 0
