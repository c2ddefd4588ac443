(* The scrape loop: update the liveness gauge, freeze the registry,
   feed every consumer.  Deterministic callers (the simulator, the
   sweep) drive [tick ~ts] themselves on the step clock. *)

type consumer = Registry.snapshot -> unit

type t = {
  reg : Registry.t;
  clock : unit -> int;
  liveness : Liveness_gauge.t option;
  consumers : consumer list;
  mutable last : Registry.snapshot option;
}

let create ?liveness ?(consumers = []) ?clock reg =
  let clock =
    match clock with
    | Some c -> c
    | None ->
        (* wall-clock milliseconds since sampler creation *)
        let t0 = Unix.gettimeofday () in
        fun () -> int_of_float ((Unix.gettimeofday () -. t0) *. 1e3)
  in
  { reg; clock; liveness; consumers; last = None }

let tick ?ts t =
  let ts = match ts with Some ts -> ts | None -> t.clock () in
  (match t.liveness with Some lg -> ignore (Liveness_gauge.update lg) | None -> ());
  let snap = Registry.scrape t.reg ~ts in
  t.last <- Some snap;
  List.iter (fun f -> f snap) t.consumers;
  snap

let last t = t.last
