open Tm_history

type op =
  | W_read of Event.tvar
  | W_write of Event.tvar * ((Event.tvar -> Event.value) -> Event.value)

type body = op list

type t = { body : Prng.t -> int -> body }

module Reads = struct
  type t = {
    seen : Event.value array;
    seen_in : int array;
    mutable attempt : int;
  }

  let create ~ntvars =
    { seen = Array.make ntvars 0; seen_in = Array.make ntvars 0; attempt = 1 }

  let next_attempt r = r.attempt <- r.attempt + 1

  let record r x v =
    r.seen.(x) <- v;
    r.seen_in.(x) <- r.attempt

  let latest r x =
    if x >= 0 && x < Array.length r.seen && r.seen_in.(x) = r.attempt then
      r.seen.(x)
    else 0
end

let increment x = W_write (x, fun latest -> latest x + 1)

(* A counter body is immutable, so one per t-variable serves every draw:
   built once here, not per [counter] call (a sweep builds its specs by
   the hundred). *)
let counter_bodies = Array.init 64 (fun x -> [ W_read x; increment x ])

let counter ~ntvars =
  {
    body =
      (fun g _ ->
        let x = Prng.int g ntvars in
        if x < Array.length counter_bodies then counter_bodies.(x)
        else [ W_read x; increment x ]);
  }

let read_heavy ~ntvars ~reads =
  {
    body =
      (fun g _ ->
        let rs = List.init reads (fun _ -> W_read (Prng.int g ntvars)) in
        let x = Prng.int g ntvars in
        rs @ [ W_read x; increment x ]);
  }

let read_only ~ntvars ~reads =
  {
    body = (fun g _ -> List.init reads (fun _ -> W_read (Prng.int g ntvars)));
  }

let write_only ~ntvars ~writes =
  {
    body =
      (fun g i ->
        List.init writes (fun _ ->
            W_write (Prng.int g ntvars, fun _ -> i + 1)));
  }

let transfer ~ntvars =
  {
    body =
      (fun g _ ->
        if ntvars < 2 then invalid_arg "Workload.transfer: need >= 2 t-vars";
        let a = Prng.int g ntvars in
        let b = (a + 1 + Prng.int g (ntvars - 1)) mod ntvars in
        [
          W_read a;
          W_read b;
          W_write (a, fun latest -> latest a - 1);
          W_write (b, fun latest -> latest b + 1);
        ]);
  }

let fixed bodies =
  {
    body =
      (fun _ i ->
        match bodies with
        | [] -> []
        | _ -> List.nth bodies (i mod List.length bodies));
  }
