open Tm_history

type op =
  | W_read of Event.tvar
  | W_write of Event.tvar * ((Event.tvar * Event.value) list -> Event.value)

type body = op list

type t = { body : Prng.t -> int -> body }

let latest reads x =
  match List.assoc_opt x reads with Some v -> v | None -> 0

let increment x = W_write (x, fun reads -> latest reads x + 1)

let counter ~ntvars =
  {
    body =
      (fun g _ ->
        let x = Prng.int g ntvars in
        [ W_read x; increment x ]);
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
          W_write (a, fun reads -> latest reads a - 1);
          W_write (b, fun reads -> latest reads b + 1);
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
