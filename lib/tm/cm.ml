open Tm_history

type decision = Steal | Wait | Abort_self

type view = {
  proc : Event.proc;
  ops_done : int;
  waits : int;
  timestamp : int;
}

type t = {
  cm_name : string;
  decide : attacker:view -> victim:view -> decision;
}

let aggressive =
  { cm_name = "aggressive"; decide = (fun ~attacker:_ ~victim:_ -> Steal) }

let polite bound =
  {
    cm_name = Fmt.str "polite-%d" bound;
    decide =
      (fun ~attacker ~victim:_ ->
        if attacker.waits >= bound then Steal else Wait);
  }

let karma =
  {
    cm_name = "karma";
    decide =
      (fun ~attacker ~victim ->
        if attacker.ops_done + attacker.waits >= victim.ops_done then Steal
        else Wait);
  }

let greedy =
  {
    cm_name = "greedy";
    decide =
      (fun ~attacker ~victim ->
        if attacker.timestamp < victim.timestamp then Steal else Abort_self);
  }

(* Older transactions steal; younger ones wait up to the bound, then
   abort themselves. *)
let timestamp bound =
  {
    cm_name = Fmt.str "timestamp-%d" bound;
    decide =
      (fun ~attacker ~victim ->
        if attacker.timestamp < victim.timestamp then Steal
        else if attacker.waits >= bound then Abort_self
        else Wait);
  }

let all = [ aggressive; polite 4; karma; greedy; timestamp 4 ]

let by_name n = List.find_opt (fun cm -> cm.cm_name = n) all
