package serve

import (
	"encoding/json"
	"net/http"

	"qgov/internal/wire"
)

// control implements connBackend: it executes one control-plane
// operation. It is the only implementation of each op: the TCP
// connection worker calls it between decide batches (control frames are
// ordering barriers; see tcpConn.respond), and the HTTP front calls it
// for every session and fleet route, so the two planes share request
// and response JSON and status codes by construction.
func (s *Server) control(op byte, session string, body []byte) (status uint16, resp []byte) {
	switch op {
	case wire.OpCreate:
		var req createRequest
		if len(body) > 0 {
			if err := json.Unmarshal(body, &req); err != nil {
				return http.StatusBadRequest, errorBody(err)
			}
		}
		if session != "" {
			req.ID = session
		}
		sess, st, err := s.createSession(req)
		if err != nil {
			return uint16(st), errorBody(err)
		}
		s.logf("serve: session %s created (%s on %s)", sess.id, sess.govName, sess.platName)
		return http.StatusCreated, jsonBody(sess.info())

	case wire.OpCheckpoint:
		sess := s.session(session)
		if sess == nil {
			return http.StatusNotFound, errorBody(errUnknownSession(session))
		}
		state, st, err := s.freezeSession(sess)
		if err != nil {
			return uint16(st), errorBody(err)
		}
		return http.StatusOK, jsonBody(checkpointResponse{Session: sess.id, State: state})

	case wire.OpDelete:
		if !s.deleteSession(session) {
			return http.StatusNotFound, errorBody(errUnknownSession(session))
		}
		return http.StatusNoContent, nil

	case wire.OpInfo:
		sess := s.session(session)
		if sess == nil {
			return http.StatusNotFound, errorBody(errUnknownSession(session))
		}
		return http.StatusOK, jsonBody(sess.detail())

	case wire.OpMetrics:
		k, err := parseMetricsQuery(body)
		if err != nil {
			return http.StatusBadRequest, errorBody(err)
		}
		return http.StatusOK, jsonBody(s.buildMetrics(k))

	case wire.OpList:
		return http.StatusOK, jsonBody(s.listInfos())

	case wire.OpHealth:
		return http.StatusOK, jsonBody(s.health())

	case wire.OpTrace:
		return s.traceSpans(body)

	case wire.OpMembers:
		if len(body) == 0 {
			return http.StatusOK, jsonBody(s.membersTable())
		}
		var msg wire.Members
		if err := json.Unmarshal(body, &msg); err != nil {
			return http.StatusBadRequest, errorBody(err)
		}
		return s.installMembers(msg)

	default:
		return http.StatusBadRequest, errorBody(errf("unknown control op 0x%02x", op))
	}
}

func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Every body type here marshals by construction; reaching this is
		// a programming error worth failing loudly over.
		panic("serve: encoding control response: " + err.Error())
	}
	return b
}

func errorBody(err error) []byte {
	b, _ := json.Marshal(map[string]string{"error": err.Error()})
	return b
}
