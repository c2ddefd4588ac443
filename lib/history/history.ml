type t = { rev : Event.t list; len : int }

let empty = { rev = []; len = 0 }

let of_events es = { rev = List.rev es; len = List.length es }
let of_rev_events rev = { rev; len = List.length rev }
let events h = List.rev h.rev
let rev_events h = h.rev

(* The [k] newest events of [rev], oldest first. *)
let rec iter_newest f rev k =
  if k > 0 then
    match rev with
    | e :: older ->
        iter_newest f older (k - 1);
        f e
    | [] -> ()

let chunk = 16

(* Oldest chunk first, each walked by a recursion at most [chunk] deep:
   [marks.(i)] is the spine from the [i]-th chunk boundary, counted from
   the newest event.  A deeper recursion outruns the processor's
   return-address predictor: with 64-event chunks the walk took about
   two thirds longer. *)
let iter f h =
  if h.len <= chunk then iter_newest f h.rev h.len
  else begin
    let nchunks = (h.len + chunk - 1) / chunk in
    let marks = Array.make nchunks [] in
    let l = ref h.rev in
    for i = 0 to nchunks - 1 do
      marks.(i) <- !l;
      for _ = 1 to chunk do
        match !l with _ :: older -> l := older | [] -> ()
      done
    done;
    iter_newest f marks.(nchunks - 1) (h.len - ((nchunks - 1) * chunk));
    for i = nchunks - 2 downto 0 do
      iter_newest f marks.(i) chunk
    done
  end
let length h = h.len

let append h e = { rev = e :: h.rev; len = h.len + 1 }
let concat h es = List.fold_left append h es

let project h p = List.filter (fun e -> Event.proc e = p) (events h)

let sorted_uniq xs = List.sort_uniq Int.compare xs

let procs h = sorted_uniq (List.map Event.proc (events h))

let tvars h =
  let tvar = function
    | Event.Inv (_, i) -> Event.tvar_of_invocation i
    | Event.Res _ -> None
  in
  sorted_uniq (List.filter_map tvar (events h))

(* Per-process pending invocation, threaded through a left-to-right scan. *)
let scan_well_formed es =
  let pending : (Event.proc, Event.invocation) Hashtbl.t = Hashtbl.create 8 in
  let check e =
    match e with
    | Event.Inv (p, i) -> (
        match Hashtbl.find_opt pending p with
        | Some _ ->
            Error
              (Fmt.str "event %a: process %d already has a pending invocation"
                 Event.pp e p)
        | None ->
            Hashtbl.replace pending p i;
            Ok ())
    | Event.Res (p, r) -> (
        match Hashtbl.find_opt pending p with
        | None ->
            Error
              (Fmt.str "event %a: process %d has no pending invocation"
                 Event.pp e p)
        | Some i ->
            if Event.matches i r then (
              Hashtbl.remove pending p;
              Ok ())
            else
              Error
                (Fmt.str "event %a: response does not match invocation %a"
                   Event.pp e Event.pp_invocation i))
  in
  let rec go = function
    | [] -> Ok pending
    | e :: rest -> ( match check e with Ok () -> go rest | Error m -> Error m)
  in
  go es

let well_formed h =
  match scan_well_formed (events h) with Ok _ -> Ok () | Error m -> Error m

let is_well_formed h = Result.is_ok (well_formed h)

let equivalent h h' =
  let ps = sorted_uniq (procs h @ procs h') in
  List.for_all
    (fun p -> List.equal Event.equal (project h p) (project h' p))
    ps

(* A process has a live transaction iff its projection has at least one
   event after the last commit or abort response. *)
let live_state h p =
  let es = project h p in
  let rec last_events acc = function
    | [] -> acc
    | e :: rest ->
        if Event.is_commit e || Event.is_abort e then last_events [] rest
        else last_events (e :: acc) rest
  in
  match last_events [] es with
  | [] -> `No_live
  | e :: _ -> (
      (* [e] is the last event of the live transaction (list was reversed
         by accumulation). *)
      match e with
      | Event.Inv (_, i) -> `Pending_invocation i
      | Event.Res _ -> `Between_operations)

let complete h =
  let close p =
    match live_state h p with
    | `No_live -> []
    | `Pending_invocation _ -> [ Event.Res (p, Event.Aborted) ]
    | `Between_operations ->
        [ Event.Inv (p, Event.Try_commit); Event.Res (p, Event.Aborted) ]
  in
  concat h (List.concat_map close (procs h))

let equal h h' = List.equal Event.equal (events h) (events h')

let is_complete h = equal (complete h) h

let count pred h p =
  List.length (List.filter (fun e -> Event.proc e = p && pred e) (events h))

let commit_count = count Event.is_commit
let abort_count = count Event.is_abort
let try_commit_count = count Event.is_try_commit
let event_count h p = List.length (project h p)

let pp_events ppf es = Fmt.(list ~sep:(any ";@ ") Event.pp) ppf es
let pp ppf h = pp_events ppf (events h)

let read p x v = [ Event.Inv (p, Event.Read x); Event.Res (p, Event.Value v) ]
let read_aborted p x = [ Event.Inv (p, Event.Read x); Event.Res (p, Event.Aborted) ]

let write p x v =
  [ Event.Inv (p, Event.Write (x, v)); Event.Res (p, Event.Ok_written) ]

let write_aborted p x v =
  [ Event.Inv (p, Event.Write (x, v)); Event.Res (p, Event.Aborted) ]

let commit p = [ Event.Inv (p, Event.Try_commit); Event.Res (p, Event.Committed) ]
let abort p = [ Event.Inv (p, Event.Try_commit); Event.Res (p, Event.Aborted) ]

let steps xs = of_events (List.concat xs)
